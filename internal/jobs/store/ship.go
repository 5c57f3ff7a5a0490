package store

import "errors"

// Journal shipping: the primary's write-ahead journal is replicated to
// a warm-standby peer so a dead shard's accepted jobs can run again
// somewhere else. Only the journal ships, and it ships as its own
// bytes: the standby re-runs every marooned job from cycle 0, which the
// simulator's determinism makes byte-identical to the run the dead
// shard would have finished. A batch is the frames the primary
// appended, exactly as journal.wal holds them; a resync is the whole
// journal. The standby keeps its copy with the same journalFile type
// and checks what arrives with the same frame decoder journal replay
// uses, so only this package knows the frame and record format.
//
// Continuity rests on two numbers:
//
//   - Seq is the journal's per-record counter, contiguous within one
//     generation; a failed append uses none up. The standby accepts
//     exactly Seq == last+1; anything higher is a gap (a dropped or
//     reordered shipment) and forces a resync, anything at or below
//     last is a duplicate replay and is ignored idempotently.
//   - Gen increments every time the journal is rewritten — once per
//     Open and once per compaction — and is persisted in a sidecar
//     file so it is monotonic across restarts. A batch from another
//     generation than the standby holds also forces a resync: the
//     journal it extends is not the journal the standby has.
//
// A resync ships the whole current journal (ExportJournal), which
// atomically replaces the standby's copy for that shard. Loss anywhere
// in the pipe therefore degrades to "resync soon", never to silent
// divergence.

// ErrBadFrame rejects shipped bytes that are not whole journal frames
// whose checksums match and whose payloads are valid records — a
// truncated or corrupted shipment must never reach the standby's copy.
var ErrBadFrame = errors.New("store: shipped frame failed verification")

// Sink receives journal activity for replication. Queue and
// JournalRewritten run under the store lock, so they must only record
// what they are given: no I/O, and no call back into the Store.
// internal/cluster.Shipper is the production implementation.
type Sink interface {
	// Queue takes one frame just appended to the journal of generation
	// gen, as the journal holds it. The frame is not modified later.
	Queue(gen uint64, frame []byte)
	// Ship delivers the queued frames. Accept calls it after its frame
	// is queued and the store lock is released, and acknowledges the
	// job when it returns, so the sink should return only once the
	// standby holds the frame, when it can. A failed or skipped delivery
	// is not an error: the gap machinery resyncs later. Done and failed
	// frames wait for the next delivery.
	Ship()
	// JournalRewritten signals a new journal generation (Open or
	// compaction): whatever the sink queued or shipped before is stale,
	// and it must resync the standby from ExportJournal.
	JournalRewritten(gen uint64)
}

// SetSink arms (or, with nil, disarms) journal shipping and returns
// the current generation. The caller should resync the standby
// immediately after: everything appended before the sink was set has
// never been shipped.
func (s *Store) SetSink(sink Sink) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
	return s.j.gen
}

// Generation returns the journal's current generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.gen
}

// ExportJournal reads the current journal back as a resync ships it:
// its generation and its bytes up to the last whole frame. The last
// record's sequence number is where the live stream continues.
func (s *Store) ExportJournal() (gen uint64, data []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, ErrClosed
	}
	if data, err = s.j.contents(); err != nil {
		return 0, nil, err
	}
	return s.j.gen, data, nil
}
