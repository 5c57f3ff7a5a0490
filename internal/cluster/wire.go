package cluster

import "regvirt/internal/jobs/store"

// Wire types of the cluster control plane. Everything but shipped
// journal bytes is JSON over the same HTTP listener the job API uses;
// shard-to-shard traffic (shipping, adoption) shares these shapes with
// the router's probes.

// Journal replication reaches POST /v1/cluster/ship as the journal's
// own bytes, a body of type shipType: a batch is the frames the primary
// appended, and a resync snapshot (snapshot=1 in the query) its whole
// journal. The query names the sender's shard, its ownership epoch and
// the journal generation (?shard=NAME&epoch=N&gen=G). The standby checks
// the bytes with the store's replay decoder; this package never looks
// inside them. The answer is a JSON shipResponse, or a 409 fencedBody.
const shipType = "application/octet-stream"

// shipResponse acknowledges what the standby now holds. Applied counts
// the frames a batch appended, or the records a snapshot installed.
// Resync asks the shipper to send a snapshot: the batch did not extend
// the copy contiguously (a gap, a generation change, or a corrupt
// frame).
type shipResponse struct {
	Gen     uint64 `json:"gen"`
	LastSeq uint64 `json:"last_seq"`
	Applied int    `json:"applied"`
	Resync  bool   `json:"resync,omitempty"`
}

// adoptRequest asks a standby to take over a dead shard's jobs. Epoch
// is the router's freshly bumped ownership epoch for that keyspace:
// the adopter fences the shipped copy at it, so the (possibly merely
// partitioned, not dead) old primary's ships are refused from the
// moment the takeover happens.
type adoptRequest struct {
	Shard string `json:"shard"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// epochRequest is POST /v1/cluster/epoch: the router granting a shard
// a fresh ownership epoch for its keyspace. The shard installs it,
// clears its fenced latch, and rejoins by resyncing its journal.
type epochRequest struct {
	Keyspace string `json:"keyspace"`
	Epoch    uint64 `json:"epoch"`
}

// fencedBody is the JSON body of an HTTP 409 fencing rejection; Epoch
// carries the fence the sender fell below.
type fencedBody struct {
	Error  string `json:"error"`
	Kind   string `json:"kind"`
	Epoch  uint64 `json:"epoch"`
	Status int    `json:"status"`
}

// AdoptResult reports one adoption: how many journal entries were
// recovered from the shipped copy and how many unfinished jobs were
// re-enqueued here to run again.
type AdoptResult struct {
	Shard   string `json:"shard"`
	Jobs    int    `json:"jobs"`
	Resumed int    `json:"resumed"`
}

// ShipTargetStatus is the shipping half of a shard's /v1/cluster
// report: who it ships to and how far the standby has acknowledged.
type ShipTargetStatus struct {
	Name             string `json:"name"`
	URL              string `json:"url"`
	AckGen           uint64 `json:"ack_gen"`
	AckSeq           uint64 `json:"ack_seq"`
	Queued           int    `json:"queued"`
	PendingResync    bool   `json:"pending_resync,omitempty"`
	FramesShipped    uint64 `json:"frames_shipped"`
	Resyncs          uint64 `json:"resyncs"`
	SyncShipFailures uint64 `json:"sync_ship_failures"`
	Epoch            uint64 `json:"epoch,omitempty"`
	Fenced           bool   `json:"fenced,omitempty"`
}

// NodeStatus is a shard's GET /v1/cluster body: its own name, where it
// ships, which shards it is standby for, and what it has adopted. The
// router reads ShipsTo from here to learn failover targets — the dead
// shard cannot be asked, so the topology is captured while it is alive.
type NodeStatus struct {
	Role       string              `json:"role"`
	Shard      string              `json:"shard"`
	Epoch      uint64              `json:"epoch,omitempty"`
	Fenced     bool                `json:"fenced,omitempty"`
	ShipsTo    *ShipTargetStatus   `json:"ships_to,omitempty"`
	StandbyFor []store.ShardStatus `json:"standby_for,omitempty"`
	Adopted    []AdoptResult       `json:"adopted,omitempty"`
}

// maxShipBody bounds a ship body. A resync carries the whole journal:
// the accepts still pending and whatever finished since the last
// compaction (which runs once the journal passes 1 MiB), so the cap is
// far above the job API's 1 MiB.
const maxShipBody = 64 << 20

// maxControlBody bounds the JSON body of an epoch grant or an adoption
// request: a keyspace or shard name and an epoch, a few dozen bytes.
const maxControlBody = 4 << 10
