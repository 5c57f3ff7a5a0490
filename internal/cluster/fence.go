package cluster

import "fmt"

// Split-brain fencing. The router is the epoch authority: every
// keyspace (named by its owning shard) carries a monotonically
// increasing ownership epoch, starting at 1. Exactly one writer holds
// each (keyspace, epoch) pair:
//
//   - The primary stamps its current epoch on every ship request.
//   - Adoption bumps the epoch: the router hands the bumped value to
//     the adopting standby, which persists it as a fence on the
//     shipped copy. From that moment the old primary's ships — stamped
//     with the previous epoch — are refused with HTTP 409 (kind
//     "fenced"), however alive the primary still is behind its
//     partition.
//   - A fenced primary latches: it stops shipping and refuses new
//     submissions with 503 (kind "fenced") until the router grants it
//     a fresh, higher epoch via POST /v1/cluster/epoch, at which point
//     it rejoins by resyncing its whole journal as a snapshot.
//
// The fence only ratchets forward, so a delayed or replayed request
// from a deposed epoch can never be accepted late.

// FencedError is a ship or submit refused because the sender's epoch
// fell below the receiver's fence — the sender lost ownership of the
// keyspace (another node adopted it) and must rejoin at a fresh epoch.
type FencedError struct {
	// Keyspace is the fenced keyspace (the owning shard's name).
	Keyspace string
	// Epoch is the stale epoch the sender presented.
	Epoch uint64
	// Fence is the receiver's current fence — the epoch the keyspace
	// moved on to.
	Fence uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("cluster: keyspace %q fenced: epoch %d is stale (fence %d)", e.Keyspace, e.Epoch, e.Fence)
}
