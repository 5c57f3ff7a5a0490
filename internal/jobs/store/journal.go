package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"regvirt/internal/jobs"
)

// The journal is a sequence of length-prefixed, checksummed frames:
//
//	[payload length, u32 LE][CRC-32C of payload, u32 LE][JSON payload]
//
// JSON (not gob) because the records are tiny, self-describing and
// greppable when debugging a data directory by hand; CRC-32C because a
// torn write at the tail — the one corruption an append-only log with
// fsync-on-accept can actually suffer — must be detectable per record,
// not per file. Replay accepts the longest valid prefix and discards
// the rest, so a crash mid-append loses at most the record being
// written, never the journal.

// Journal operations.
const (
	// OpAccept records a job admitted for execution. Its frame is
	// fsynced before the submission is acknowledged: an accepted job
	// survives any subsequent crash.
	OpAccept = "accept"
	// OpDone records that the job's result was persisted to the result
	// store (the result file is the durable artifact; the record only
	// closes the journal entry).
	OpDone = "done"
	// OpFailed records a deterministic failure — one that would repeat
	// on re-execution, so replay must not re-enqueue the job.
	OpFailed = "failed"
)

// Record is one journal entry.
type Record struct {
	// Seq is a monotonically increasing sequence number within one
	// journal generation (compaction restarts it).
	Seq uint64 `json:"seq"`
	// Op is one of OpAccept, OpDone, OpFailed.
	Op string `json:"op"`
	// ID is the job's content address (jobs.Job.Key).
	ID string `json:"id"`
	// Async records how the job was submitted (informational).
	Async bool `json:"async,omitempty"`
	// Job is the full spec, present on OpAccept so replay can re-run it.
	Job *jobs.Job `json:"job,omitempty"`
	// Err is the failure message, present on OpFailed.
	Err string `json:"err,omitempty"`
}

// maxRecordSize bounds one frame's payload. Real records are a few
// hundred bytes (the largest field is an inline kernel's assembly);
// the cap keeps a corrupt length prefix from allocating gigabytes
// during replay.
const maxRecordSize = 1 << 20

const frameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameRecord encodes one record into its on-disk frame.
func frameRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal journal record: %w", err)
	}
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("store: journal record for %s is %d bytes (max %d)", rec.ID, len(payload), maxRecordSize)
	}
	return frameBytes(payload), nil
}

// frameBytes wraps a payload in its on-disk frame: its length and
// CRC-32C, then the payload.
func frameBytes(payload []byte) []byte {
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// nextFrame decodes the frame at the head of data and returns its
// record and its length in bytes. ok is false unless data starts with
// a whole frame whose length is in bounds, whose checksum matches and
// whose payload is a valid record. Journal replay and a standby's
// snapshot check decode with it; a standby's batch apply reads with
// nextFrameHead, which takes exactly the frames it takes.
func nextFrame(data []byte) (rec Record, n int, ok bool) {
	payload, n, ok := framePayload(data)
	if !ok {
		return Record{}, 0, false
	}
	if rec, ok = decodeRecord(payload); !ok {
		return Record{}, 0, false
	}
	return rec, n, true
}

// framePayload returns the payload of the frame at the head of data
// and the frame's length, if data starts with a whole frame whose
// length is in bounds and whose checksum matches.
func framePayload(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(data)
	if size == 0 || size > maxRecordSize || uint64(len(data)-frameHeaderSize) < uint64(size) {
		return nil, 0, false
	}
	n = frameHeaderSize + int(size)
	payload = data[frameHeaderSize:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	return payload, n, true
}

// readJournal decodes the longest valid prefix of a journal's bytes. It
// never fails: any malformed frame — short header, oversized or zero
// length, checksum mismatch, non-JSON payload, semantically invalid
// record — ends the replay at the last good frame. The second return
// is the byte length of the valid prefix, which openJournal uses to
// discard a corrupt tail. FuzzJournalReplay holds this to "never
// panics, always a self-consistent prefix" on arbitrary bytes.
func readJournal(data []byte) ([]Record, int64) {
	var (
		recs  []Record
		valid int64
	)
	for {
		rec, n, ok := nextFrame(data[valid:])
		if !ok {
			return recs, valid
		}
		recs = append(recs, rec)
		valid += int64(n)
	}
}

// decodeRecord parses a checksummed frame payload into a record that
// makes sense as a journal entry.
func decodeRecord(payload []byte) (Record, bool) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil || !validRecord(rec) {
		return Record{}, false
	}
	return rec, true
}

// validRecord rejects frames that checksum correctly but make no sense
// as journal entries (a CRC protects against corruption, not against
// a foreign file being pointed at as a journal).
func validRecord(rec Record) bool {
	switch rec.Op {
	case OpAccept:
		return safeID(rec.ID) && rec.Job != nil
	case OpDone, OpFailed:
		return safeID(rec.ID)
	}
	return false
}

// safeID accepts the IDs this store files things under. Job keys are
// 32 lowercase-hex characters; the check is slightly wider (any short
// hex-ish token) but refuses anything that could traverse paths, since
// IDs become file names.
func safeID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// genName is the sidecar beside a journal file that persists its
// generation, so the generation stays monotonic across restarts (a
// standby orders snapshots by it).
const genName = "journal.gen"

// journalFile is one journal on disk: the primary's journal.wal, or a
// standby's copy of a primary's journal, shipped.wal. Both are built
// the same way, so they cannot drift apart. Its owner serializes every
// call.
type journalFile struct {
	path string
	f    *os.File // open for writing; nil after a failed reopen, so appends fail
	size int64    // length of the whole-frame prefix: where the next frame goes
	gen  uint64   // generation, persisted in the genName sidecar
	seq  uint64   // sequence number of the last whole frame
}

// openJournal opens (creating if needed) the journal file name in dir:
// it replays the longest valid prefix, cuts the torn tail off, and
// reads the generation sidecar. It returns the prefix's records.
func openJournal(dir, name string) (*journalFile, []Record, error) {
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: read %s: %w", name, err)
	}
	recs, valid := readJournal(raw)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	if int64(len(raw)) > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncate %s: %w", name, err)
		}
	}
	j := &journalFile{path: path, f: f, size: valid, gen: readUint(filepath.Join(dir, genName))}
	if len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq
	}
	return j, recs, nil
}

// append writes whole frames, the last of them numbered seq, with one
// write at the end of the whole-frame prefix. A failed write leaves the
// journal at its last whole frame and seq unused: the file is cut back,
// and should the cut fail too, the next append writes over whatever the
// failed one left, which replay would stop at anyway.
func (j *journalFile) append(frames []byte, seq uint64) error {
	if _, err := j.f.WriteAt(frames, j.size); err != nil {
		_ = os.Truncate(j.path, j.size)
		return fmt.Errorf("store: append %s: %w", filepath.Base(j.path), err)
	}
	j.size += int64(len(frames))
	j.seq = seq
	return nil
}

// sync fsyncs the appended frames.
func (j *journalFile) sync() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", filepath.Base(j.path), err)
	}
	return nil
}

// replace swaps in data, whole frames ending at sequence number seq, as
// the journal of generation gen, through writeAtomic: readers and a
// crash see the old journal or the new one. A failed write leaves the
// old journal in use.
func (j *journalFile) replace(data []byte, gen, seq uint64) error {
	if err := writeAtomic(j.path, data); err != nil {
		return err
	}
	j.f.Close()
	var err error
	if j.f, err = os.OpenFile(j.path, os.O_WRONLY, 0o644); err != nil {
		return fmt.Errorf("store: reopen %s: %w", filepath.Base(j.path), err)
	}
	j.size, j.seq = int64(len(data)), seq
	j.setGen(gen)
	return nil
}

// setGen records the journal's generation and persists it after the
// frames it names. The sidecar write's loss is benign: a journal whose
// sidecar lags its frames fails the standby's generation check, or the
// primary reuses a generation number, and either way a resync follows.
func (j *journalFile) setGen(gen uint64) {
	if gen != j.gen {
		j.gen = gen
		_ = writeUint(filepath.Join(filepath.Dir(j.path), genName), gen)
	}
}

// contents reads back the journal's whole-frame prefix.
func (j *journalFile) contents() ([]byte, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", filepath.Base(j.path), err)
	}
	return data[:min(int64(len(data)), j.size)], nil
}

// close fsyncs and closes the journal file.
func (j *journalFile) close() error {
	if err := j.sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
