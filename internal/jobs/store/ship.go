package store

import (
	"bytes"
	"encoding/binary"
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
//
// On the wire (AppendShipFrame, ParseShipFrames) a batch of frames is
// one binary body, each frame its generation and sequence number (u64
// LE each) followed by the frame exactly as the journal stores it:
// payload length and CRC (u32 LE each), then the payload.
type Frame struct {
	Gen     uint64
	Seq     uint64
	CRC     uint32
	Payload []byte
}

// ErrBadFrame rejects a shipped frame whose checksum does not match
// its payload or whose payload is not a valid journal record — a
// truncated or corrupted shipment must never be appended to the
// standby's journal copy.
var ErrBadFrame = errors.New("store: shipped frame failed verification")

// Decode verifies the frame as journal replay verifies a frame on disk
// (payload length, checksum, a valid record) and decodes its record.
func (f Frame) Decode() (Record, error) {
	if len(f.Payload) == 0 || len(f.Payload) > maxRecordSize {
		return Record{}, fmt.Errorf("%w: payload %d bytes", ErrBadFrame, len(f.Payload))
	}
	if crc32.Checksum(f.Payload, castagnoli) != f.CRC {
		return Record{}, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	rec, ok := decodeRecord(f.Payload)
	if !ok {
		return Record{}, fmt.Errorf("%w: payload is not a journal record", ErrBadFrame)
	}
	return rec, nil
}

// frameBytes wraps a payload in the on-disk frame header.
func frameBytes(payload []byte) []byte {
	return appendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload, crc32.Checksum(payload, castagnoli))
}

// appendFrame appends the on-disk frame of payload, whose CRC-32C is
// crc: the length and the CRC, then the payload.
func appendFrame(dst, payload []byte, crc uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// shipPrefix is the generation and sequence number ahead of each frame
// in a ship body.
const shipPrefix = 16

// ShipFrameOverhead is what a frame adds to a ship body beyond its
// payload.
const ShipFrameOverhead = shipPrefix + frameHeaderSize

// AppendShipFrame appends f to a ship body in the wire form Frame
// describes. f.CRC travels as given, so a frame corrupted before it was
// shipped is refused by the standby.
func AppendShipFrame(body []byte, f Frame) []byte {
	body = binary.LittleEndian.AppendUint64(body, f.Gen)
	body = binary.LittleEndian.AppendUint64(body, f.Seq)
	return appendFrame(body, f.Payload, f.CRC)
}

// ParseShipFrames splits a ship body into its frames, in order, without
// copying: each Payload aliases body. It checks only the framing (whole
// frames, each payload within the journal's record bound); ApplyFrames
// verifies checksums and records. A body that ends mid-frame or carries
// an impossible length yields the frames before that point and
// ErrBadFrame.
func ParseShipFrames(body []byte) ([]Frame, error) {
	var frames []Frame
	for len(body) > 0 {
		if len(body) < ShipFrameOverhead {
			return frames, fmt.Errorf("%w: ship body ends mid-frame", ErrBadFrame)
		}
		n := binary.LittleEndian.Uint32(body[shipPrefix:])
		if n == 0 || n > maxRecordSize || uint64(len(body)-ShipFrameOverhead) < uint64(n) {
			return frames, fmt.Errorf("%w: ship frame of %d payload bytes in %d", ErrBadFrame, n, len(body)-ShipFrameOverhead)
		}
		end := ShipFrameOverhead + int(n)
		frames = append(frames, Frame{
			Gen:     binary.LittleEndian.Uint64(body[0:]),
			Seq:     binary.LittleEndian.Uint64(body[8:]),
			CRC:     binary.LittleEndian.Uint32(body[shipPrefix+4:]),
			Payload: body[ShipFrameOverhead:end:end],
		})
		body = body[end:]
	}
	return frames, nil
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
