package cluster

import (
	"encoding/binary"

	"regvirt/internal/jobs/store"
)

// Wire types of the cluster control plane. Everything but journal
// shipping is JSON over the same HTTP listener the job API uses;
// shard-to-shard traffic (shipping, adoption) shares these shapes with
// the router's probes.

// Journal replication is one long-lived stream per standby: POST
// /v1/cluster/ship?shard=NAME, whose request body is a sequence of
// messages and whose response body carries one fixed-size ack per
// message, written while the next messages may still be arriving
// (full-duplex HTTP/1.1). A message is a shipHeaderSize header, then
// the journal's own bytes: a batch is the frames the primary appended,
// a resync snapshot its whole journal. The header holds the length of
// those bytes (u32), the sender's ownership epoch and the journal
// generation (u64 each) and a flags byte (shipSnapshot), little-endian
// as the journal's own integers are. A body of one message is a valid
// stream of one, so a plain POST ships one batch or snapshot. The
// standby checks the bytes with the store's replay decoder; this
// package never looks inside them.
const shipType = "application/octet-stream"

const (
	shipHeaderSize = 21
	// shipSnapshot flags a message whose journal bytes are a whole
	// journal that replaces the standby's copy.
	shipSnapshot = 1
)

// shipHeader is one message's decoded header.
type shipHeader struct {
	size       uint32 // journal bytes that follow the header
	epoch, gen uint64
	snapshot   bool
}

func putShipHeader(b []byte, h shipHeader) {
	binary.LittleEndian.PutUint32(b[0:], h.size)
	binary.LittleEndian.PutUint64(b[4:], h.epoch)
	binary.LittleEndian.PutUint64(b[12:], h.gen)
	b[20] = 0
	if h.snapshot {
		b[20] = shipSnapshot
	}
}

func parseShipHeader(b []byte) shipHeader {
	return shipHeader{
		size:     binary.LittleEndian.Uint32(b[0:]),
		epoch:    binary.LittleEndian.Uint64(b[4:]),
		gen:      binary.LittleEndian.Uint64(b[12:]),
		snapshot: b[20]&shipSnapshot != 0,
	}
}

// Ship verdicts, the first byte of an ack.
const (
	// shipOK: the message is applied. A batch appended the frames that
	// extend the copy, a snapshot replaced it.
	shipOK = 1 + iota
	// shipResync: a batch did not extend the copy contiguously (a gap,
	// a generation change or a bad frame). The whole frames before that
	// point are applied; the shipper must send a snapshot.
	shipResync
	// shipFenced: the message's epoch is below the copy's fence, which
	// the ack carries. Nothing is applied.
	shipFenced
	// shipRefused: nothing is applied. A snapshot did not replay whole,
	// the message was longer than maxShipBody (which also ends the
	// stream), or the standby failed to store it.
	shipRefused
)

// shipAckSize is an ack's length: the verdict, the frames a batch
// appended or the records a snapshot installed (u32), then the copy's
// generation and last sequence number after the message and the fence
// (u64 each).
const shipAckSize = 29

// shipAck is one decoded ack: what the standby now holds.
type shipAck struct {
	verdict             byte
	applied             uint32
	gen, lastSeq, fence uint64
}

func putShipAck(b []byte, a shipAck) {
	b[0] = a.verdict
	binary.LittleEndian.PutUint32(b[1:], a.applied)
	binary.LittleEndian.PutUint64(b[5:], a.gen)
	binary.LittleEndian.PutUint64(b[13:], a.lastSeq)
	binary.LittleEndian.PutUint64(b[21:], a.fence)
}

func parseShipAck(b []byte) shipAck {
	return shipAck{
		verdict: b[0],
		applied: binary.LittleEndian.Uint32(b[1:]),
		gen:     binary.LittleEndian.Uint64(b[5:]),
		lastSeq: binary.LittleEndian.Uint64(b[13:]),
		fence:   binary.LittleEndian.Uint64(b[21:]),
	}
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
}

// NodeStatus is a shard's GET /v1/cluster body: its own name, epoch and
// latch, where it ships, which shards it is standby for, and what it has
// adopted. The router reads ShipsTo from here to learn failover targets
// — the dead shard cannot be asked, so the topology is captured while
// it is alive — and Epoch and the StandbyFor fences to learn epochs.
type NodeStatus struct {
	Role       string              `json:"role"`
	Shard      string              `json:"shard"`
	Epoch      uint64              `json:"epoch,omitempty"`
	Fenced     bool                `json:"fenced,omitempty"`
	ShipsTo    *ShipTargetStatus   `json:"ships_to,omitempty"`
	StandbyFor []store.ShardStatus `json:"standby_for,omitempty"`
	Adopted    []AdoptResult       `json:"adopted,omitempty"`
}

// maxShipBody bounds the journal bytes of one ship message. A resync
// carries the whole journal: the accepts still pending and whatever
// finished since the last compaction (which runs once the journal
// passes 1 MiB), so the cap is far above the job API's 1 MiB.
const maxShipBody = 64 << 20

// maxControlBody bounds the JSON body of an epoch grant or an adoption
// request: a keyspace or shard name and an epoch, a few dozen bytes.
const maxControlBody = 4 << 10
