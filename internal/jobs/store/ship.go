package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Journal shipping: the primary's write-ahead journal is replicated,
// frame by frame, to a warm-standby peer so a dead shard's accepted
// jobs can run again somewhere else. Only the journal ships: the
// standby re-runs every marooned job from cycle 0, which the
// simulator's determinism makes byte-identical to the run the dead
// shard would have finished. The unit of shipment is the same
// CRC-framed record the journal itself stores, tagged with a
// (generation, sequence) pair:
//
//   - Seq is the journal's per-record counter, contiguous within one
//     generation. The standby accepts exactly Seq == last+1; anything
//     higher is a gap (a dropped or reordered shipment) and forces a
//     resync, anything at or below last is a duplicate replay and is
//     ignored idempotently.
//   - Gen increments every time the journal is rewritten — once per
//     Open and once per compaction — and is persisted in a sidecar
//     file so it is monotonic across restarts. A frame from a newer
//     generation than the standby holds also forces a resync: the
//     journal it extends is not the journal the standby has.
//
// A resync ships the whole current journal (ExportJournal) as a
// snapshot that atomically replaces the standby's copy for that shard.
// Loss anywhere in the pipe therefore degrades to "resync soon", never
// to silent divergence.

// Frame is one shipped journal record with its framing metadata. CRC
// is the CRC-32C of Payload (the JSON record), the same checksum the
// on-disk journal stores, so the standby verifies integrity end to end
// before trusting a byte of it.
type Frame struct {
	Gen     uint64 `json:"gen"`
	Seq     uint64 `json:"seq"`
	CRC     uint32 `json:"crc"`
	Payload []byte `json:"payload"`
}

// ErrBadFrame rejects a shipped frame whose checksum does not match
// its payload or whose payload is not a valid journal record — a
// truncated or corrupted shipment must never be appended to the
// standby's journal copy.
var ErrBadFrame = errors.New("store: shipped frame failed verification")

// Decode verifies the frame's checksum and decodes its record.
func (f Frame) Decode() (Record, error) {
	if len(f.Payload) == 0 || len(f.Payload) > maxRecordSize {
		return Record{}, fmt.Errorf("%w: payload %d bytes", ErrBadFrame, len(f.Payload))
	}
	if crc32.Checksum(f.Payload, castagnoli) != f.CRC {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	recs, _ := readJournal(bytes.NewReader(frameBytes(f.Payload)))
	if len(recs) != 1 {
		return Record{}, fmt.Errorf("%w: payload is not a journal record", ErrBadFrame)
	}
	return recs[0], nil
}

// frameBytes wraps a payload in the on-disk frame header.
func frameBytes(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	putFrameHeader(buf, payload)
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// Sink receives journal activity for replication. Implementations run
// inside Store methods (sometimes under the store lock) and must not
// call back into the Store synchronously; expensive work belongs on
// the implementation's own goroutine. internal/cluster.Shipper is the
// production implementation.
type Sink interface {
	// ShipFrame offers one appended journal frame. sync is set for
	// frames whose append was fsynced (accepts — the durability point):
	// the sink should attempt delivery before returning so the standby
	// is as durable as the local disk. A failed or skipped delivery is
	// not an error; the gap machinery resyncs later.
	ShipFrame(f Frame, sync bool)
	// JournalRewritten signals a new journal generation (Open or
	// compaction): whatever the sink shipped before is stale, and it
	// must resync the standby from ExportJournal.
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
	return s.gen
}

// Generation returns the journal's current generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// ExportJournal reads the current journal generation back as records —
// the snapshot a resync ships. NextSeq is the sequence number the next
// appended frame will carry, so the standby knows where contiguity
// resumes even when the tail of the export is a non-accept record.
func (s *Store) ExportJournal() (gen uint64, recs []Record, nextSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, 0, ErrClosed
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, journalName))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("store: export journal: %w", err)
	}
	recs, _ = readJournal(bytes.NewReader(raw))
	return s.gen, recs, s.seq + 1, nil
}

// genName is the sidecar file persisting the journal generation so it
// stays monotonic across restarts (the standby orders snapshots by it).
const genName = "journal.gen"

// bumpGenLocked advances and persists the generation. The write is
// atomic but its loss is benign: a re-used generation after a crash is
// caught by the standby's seq continuity check and resolved by resync.
func (s *Store) bumpGenLocked() {
	s.gen++
	_ = writeUint(filepath.Join(s.dir, genName), s.gen)
}
