package cluster

import "regvirt/internal/jobs/store"

// Wire types of the cluster control plane. Everything but a batch of
// shipped journal frames is JSON over the same HTTP listener the job
// API uses; shard-to-shard traffic (shipping frames, snapshots,
// adoption) shares these shapes with the router's probes.

// Journal replication reaches POST /v1/cluster/ship in two forms. A
// batch of frames extending the standby's copy is a binary body of
// type shipFramesType: the frames in store.AppendShipFrame's wire form
// (generation and sequence number, then the frame exactly as the
// journal stores it), with the sender's shard name and epoch in the
// query (?shard=NAME&epoch=N). The standby verifies each frame as
// store.Frame.Decode does and appends the ones that extend its copy
// with one write. A snapshot, the resync path, is a JSON shipRequest.
// Either way the answer is a JSON shipResponse, or a 409 fencedBody.
const shipFramesType = "application/octet-stream"

// shipRequest is a snapshot: a full journal export that replaces the
// standby's copy of the sender's journal. Snapshot must be set (frames
// travel as shipFramesType). Epoch is the sender's ownership epoch for
// its keyspace: the standby rejects any request below its fence (see
// FencedError), so a partitioned-away primary cannot keep replicating
// after its keyspace was adopted.
type shipRequest struct {
	Shard    string         `json:"shard"`
	Epoch    uint64         `json:"epoch,omitempty"`
	Snapshot bool           `json:"snapshot,omitempty"`
	Gen      uint64         `json:"gen,omitempty"`
	NextSeq  uint64         `json:"next_seq,omitempty"`
	Records  []store.Record `json:"records,omitempty"`
}

// shipResponse acknowledges what the standby now holds. Resync asks
// the shipper to send a snapshot: the frames did not extend the copy
// contiguously (a gap, a generation change, or a corrupt frame).
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

// maxShipBody bounds a shipping request body. Snapshots carry a whole
// journal, so the cap is far above the job API's 1 MiB.
const maxShipBody = 64 << 20
