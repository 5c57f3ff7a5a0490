package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

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
	payload, err := recordPayload(rec)
	if err != nil {
		return nil, err
	}
	return frameBytes(payload), nil
}

// recordPayload marshals one record's frame payload (the JSON body the
// CRC covers).
func recordPayload(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal journal record: %w", err)
	}
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("store: journal record for %s is %d bytes (max %d)", rec.ID, len(payload), maxRecordSize)
	}
	return payload, nil
}

// readJournal decodes the longest valid prefix of a journal stream. It
// never fails: any malformed frame — short header, oversized or zero
// length, checksum mismatch, non-JSON payload, semantically invalid
// record — ends the replay at the last good frame. The second return
// is the byte length of the valid prefix, which Open uses to discard a
// corrupt tail. FuzzJournalReplay holds this to "never panics, always
// a self-consistent prefix" on arbitrary bytes.
func readJournal(r io.Reader) ([]Record, int64) {
	br := bufio.NewReader(r)
	var (
		recs  []Record
		valid int64
		hdr   [frameHeaderSize]byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, valid
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordSize {
			return recs, valid
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, valid
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, valid
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return recs, valid
		}
		recs = append(recs, rec)
		valid += int64(frameHeaderSize) + int64(n)
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
