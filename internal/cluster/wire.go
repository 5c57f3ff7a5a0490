package cluster

import (
	"encoding/binary"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/jobs/store"
)

// Wire types of the cluster control plane. Everything but journal
// shipping and forwarded submits is JSON over the same HTTP listener
// the job API uses; shard-to-shard traffic (shipping, adoption) shares
// these shapes with the router's probes.

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
//
// shipType is the content type of both binary streams, ship and
// forward.
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

// The router forwards submits over one long-lived stream per shard:
// POST /v1/cluster/forward, full-duplex as the ship stream is, whose
// request body carries request and cancel frames and whose response
// body carries response frames, in whatever order the shard finishes
// them, and one end frame. Every frame is a fwdHeaderSize header, the
// length of the payload that follows it (u32), the request's ID (u64,
// chosen by the router, increasing along a stream) and the frame's
// kind and flags (a byte each), little-endian as the ship stream is,
// then the payload:
//
//   - request: the tenant and the trace header value, each one length
//     byte and its bytes, then the caller's POST /v1/jobs body as it
//     arrived; the fwdAsync flag stands for ?async=1.
//   - response: the HTTP status (u16), the Retry-After value (one
//     length byte and its bytes, empty when there is none), then the
//     body the shard's POST /v1/jobs handler wrote.
//   - cancel: no payload; the caller of that request went away.
//   - end: no payload; the shard reads no more requests on this
//     stream, and the ID is the last request it read (0 for none).
//     Requests above it were never read: the router sends them again
//     on a new stream. The shard still answers every request it read
//     before it ends the response body.
const (
	fwdHeaderSize = 14

	fwdRequest  = 1
	fwdResponse = 2
	fwdCancel   = 3
	fwdEnd      = 4

	// fwdAsync flags a request made with ?async=1.
	fwdAsync = 1
)

// Forward stream bounds. A request's payload holds at most the longest
// body jobs.ReadJob takes and two fields of up to 255 bytes; a
// response's, at most what the job client takes as one answer, and its
// status and Retry-After. Past either bound the stream ends.
// maxInFlight bounds the requests one stream has open at once: the
// router waits for a slot, and the shard answers a request past it at
// once with 429 instead of serving it.
const (
	maxForwardRequest  = jobs.MaxJobBody + 2*(1+255)
	maxForwardResponse = client.MaxResponse + 3 + 255
	maxInFlight        = 1024
)

// fwdHeader is one forward frame's decoded header.
type fwdHeader struct {
	size        uint32 // payload bytes that follow the header
	id          uint64
	kind, flags byte
}

func putFwdHeader(b []byte, h fwdHeader) {
	binary.LittleEndian.PutUint32(b[0:], h.size)
	binary.LittleEndian.PutUint64(b[4:], h.id)
	b[12], b[13] = h.kind, h.flags
}

func parseFwdHeader(b []byte) fwdHeader {
	return fwdHeader{
		size:  binary.LittleEndian.Uint32(b[0:]),
		id:    binary.LittleEndian.Uint64(b[4:]),
		kind:  b[12],
		flags: b[13],
	}
}

// appendField appends a length byte and f, which must fit in it.
func appendField(b []byte, f string) []byte {
	return append(append(b, byte(len(f))), f...)
}

// cutField splits a length byte and its bytes off the head of b.
func cutField(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 1 || len(b)-1 < int(b[0]) {
		return nil, nil, false
	}
	return b[1 : 1+int(b[0])], b[1+int(b[0]):], true
}

// parseFwdRequest splits a request frame's payload.
func parseFwdRequest(p []byte) (tenant, trace, body []byte, ok bool) {
	if tenant, p, ok = cutField(p); !ok {
		return nil, nil, nil, false
	}
	if trace, p, ok = cutField(p); !ok {
		return nil, nil, nil, false
	}
	return tenant, trace, p, true
}

// parseFwdResponse splits a response frame's payload.
func parseFwdResponse(p []byte) (status int, retryAfter, body []byte, ok bool) {
	if len(p) < 2 {
		return 0, nil, nil, false
	}
	status = int(binary.LittleEndian.Uint16(p))
	if retryAfter, body, ok = cutField(p[2:]); !ok {
		return 0, nil, nil, false
	}
	return status, retryAfter, body, true
}
