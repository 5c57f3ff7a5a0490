package cluster

import (
	"fmt"
	"sync/atomic"
)

// Split-brain fencing. The router is the epoch authority: every
// keyspace (named by its owning shard) carries a monotonically
// increasing ownership epoch, starting at 1. Exactly one writer holds
// each (keyspace, epoch) pair:
//
//   - The primary stamps its current epoch on every ship message.
//   - Adoption bumps the epoch: the router hands the bumped value to
//     the adopting standby, which fences the shipped copy at it in the
//     call that replays the copy. From then on the old primary's
//     messages, stamped with the previous epoch, get a fenced ack and
//     apply nothing, however alive it still is behind its partition.
//   - A fenced primary latches: it stops shipping and refuses new
//     submissions with 503 (kind "fenced") until the router grants it
//     a fresh, higher epoch via POST /v1/cluster/epoch, at which point
//     it rejoins by resyncing its whole journal as a snapshot.
//
// The fence only ratchets forward, so a delayed or replayed message
// from a deposed epoch can never be accepted late; an epoch of 0 is
// below any fence.

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

// ownership is a shard's epoch and fenced latch, kept once: its shipper
// and shard server share it. A fenced ack latches it, and a higher
// grant clears it. One word holds both, epoch<<1 | fenced, so a refusal
// of an epoch that a grant has replaced cannot latch the new one.
type ownership struct{ w atomic.Uint64 }

func newOwnership() *ownership {
	o := &ownership{}
	o.w.Store(1 << 1) // keyspaces start life at epoch 1, matching the router
	return o
}

func (o *ownership) load() (epoch uint64, fenced bool) {
	w := o.w.Load()
	return w >> 1, w&1 == 1
}

// fence latches epoch unless a grant has replaced it or it is latched
// already, and reports whether it did.
func (o *ownership) fence(epoch uint64) bool { return o.w.CompareAndSwap(epoch<<1, epoch<<1|1) }

// grant installs epoch, clearing the latch, if it advances the record
// (and fits the word), and returns the record it found.
func (o *ownership) grant(epoch uint64) (prev uint64, wasFenced, ok bool) {
	for {
		w := o.w.Load()
		if epoch <= w>>1 || epoch >= 1<<63 {
			return w >> 1, w&1 == 1, false
		}
		if o.w.CompareAndSwap(w, epoch<<1) {
			return w >> 1, w&1 == 1, true
		}
	}
}
