package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regvirt/internal/jobs"
)

// captureSink records everything a Store ships, for wiring assertions.
// With a store set, it also notes whether Ship ran under the store
// lock.
type captureSink struct {
	st         *Store
	gens       []uint64
	frames     [][]byte
	ships      int
	shipLocked bool
	rewrites   []uint64
}

func (c *captureSink) Queue(gen uint64, frame []byte) {
	c.gens = append(c.gens, gen)
	c.frames = append(c.frames, frame)
}

func (c *captureSink) Ship() {
	c.ships++
	if c.st != nil {
		if c.st.mu.TryLock() {
			c.st.mu.Unlock()
		} else {
			c.shipLocked = true
		}
	}
}

func (c *captureSink) JournalRewritten(gen uint64) { c.rewrites = append(c.rewrites, gen) }

// seqs decodes the sequence numbers of the captured frames.
func (c *captureSink) seqs(t *testing.T) []uint64 {
	t.Helper()
	var seqs []uint64
	for i, frame := range c.frames {
		recs, n := readJournal(frame)
		if len(recs) != 1 || n != int64(len(frame)) {
			t.Fatalf("shipped frame %d is not one whole journal frame", i)
		}
		seqs = append(seqs, recs[0].Seq)
	}
	return seqs
}

func shipJob(name string) jobs.Job { return jobs.Job{Workload: name} }

// frameFor builds a valid journal frame from a record.
func frameFor(t *testing.T, seq uint64, rec Record) []byte {
	t.Helper()
	rec.Seq = seq
	frame, err := frameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// batchOf joins frames into one ship body.
func batchOf(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

func acceptRec(id string) Record {
	j := shipJob("VectorAdd")
	return Record{Op: OpAccept, ID: id, Job: &j}
}

// TestStoreShipsFramesInOrder: an armed sink is handed every append as
// a contiguous (gen, seq) stream of journal frames, Accept ships each
// accept once the store lock is released, Failed only queues, and the
// frames are the journal's own bytes.
func TestStoreShipsFramesInOrder(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := &captureSink{st: s}
	gen := s.SetSink(sink)
	if gen == 0 {
		t.Fatalf("generation = 0, want bumped at Open")
	}
	if err := s.Accept("job1", shipJob("VectorAdd"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("job2", shipJob("Reduction"), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Failed("job2", "boom"); err != nil {
		t.Fatal(err)
	}
	if got := sink.seqs(t); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("shipped seqs %v, want [1 2 3]", got)
	}
	for i, g := range sink.gens {
		if g != gen {
			t.Errorf("frame %d: gen %d, want %d", i, g, gen)
		}
	}
	if sink.ships != 2 {
		t.Errorf("Ship ran %d times, want once per accept (2)", sink.ships)
	}
	if sink.shipLocked {
		t.Error("Ship ran under the store lock")
	}
	_, journal, err := s.ExportJournal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal, batchOf(sink.frames...)) {
		t.Error("the shipped frames are not the journal's bytes")
	}
}

// TestGenerationMonotonicAcrossRestart: each Open bumps the persisted
// generation, so a standby can order snapshots from successive daemon
// lives.
func TestGenerationMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := s1.Generation()
	s1.Close()
	s2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if g2 := s2.Generation(); g2 <= g1 {
		t.Errorf("generation after restart = %d, want > %d", g2, g1)
	}
}

// TestExportJournalRoundTrip: ExportJournal returns the journal's
// bytes, whose last record's sequence number is where the live stream
// continues.
func TestExportJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Accept("aaa1", shipJob("VectorAdd"), false)
	s.Accept("bbb2", shipJob("Reduction"), false)
	s.Failed("bbb2", "nope")
	gen, journal, err := s.ExportJournal()
	if err != nil {
		t.Fatal(err)
	}
	if gen != s.Generation() {
		t.Errorf("export gen %d != live gen %d", gen, s.Generation())
	}
	recs, n := readJournal(journal)
	if len(recs) != 3 || n != int64(len(journal)) || recs[2].Seq != 3 {
		t.Fatalf("export = %d records over %d of %d bytes; want 3 whole, the last seq 3", len(recs), n, len(journal))
	}
	if recs[0].Op != OpAccept || recs[2].Op != OpFailed {
		t.Errorf("record ops = %s..%s, want accept..failed", recs[0].Op, recs[2].Op)
	}
}

// TestStandbyTruncatedFrameMidShip: a frame whose payload was cut off
// in flight (CRC no longer matches) is rejected with ErrBadFrame and
// nothing after it in the batch is applied — the shipped copy never
// contains a corrupt record.
func TestStandbyTruncatedFrameMidShip(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f1 := frameFor(t, 1, acceptRec("aaa1"))
	payload := frameFor(t, 2, acceptRec("bbb2"))[frameHeaderSize:]
	cut := payload[:len(payload)/2] // truncated mid-ship
	f2 := frameBytes(cut)
	binary.LittleEndian.PutUint32(f2[4:], crc32.Checksum(payload, castagnoli)) // the CRC of the whole payload
	f3 := frameFor(t, 3, acceptRec("ccc3"))

	applied, err := ss.ApplyFrames("shard1", 0, 1, batchOf(f1, f2, f3))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1 (the valid prefix)", applied)
	}
	if gen, last := ss.State("shard1"); gen != 1 || last != 1 {
		t.Errorf("state = gen %d seq %d, want 1/1", gen, last)
	}
	// A CRC forged to match the truncated payload is still rejected:
	// the payload no longer decodes as a journal record.
	if _, err := ss.ApplyFrames("shard1", 0, 1, frameBytes(cut)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("forged-CRC truncated frame: err = %v, want ErrBadFrame", err)
	}
	// Recovery sees only the intact record.
	recovered, err := ss.Recover("shard1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "aaa1" {
		t.Errorf("recovered %v, want exactly aaa1", recovered)
	}
}

// TestStandbyDuplicateReplayIdempotent: re-applying frames already
// applied (a shipper retrying a batch after a network timeout whose
// request actually landed) changes nothing and reports zero applied.
func TestStandbyDuplicateReplayIdempotent(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	f1, f2 := frameFor(t, 1, acceptRec("aaa1")), frameFor(t, 2, acceptRec("bbb2"))
	if n, err := ss.ApplyFrames("shard1", 0, 1, batchOf(f1, f2)); err != nil || n != 2 {
		t.Fatalf("first apply = %d, %v", n, err)
	}
	// Full replay, then a partially-overlapping batch.
	if n, err := ss.ApplyFrames("shard1", 0, 1, batchOf(f1, f2)); err != nil || n != 0 {
		t.Fatalf("duplicate replay = %d, %v; want 0, nil", n, err)
	}
	overlap := batchOf(f2, frameFor(t, 3, acceptRec("ccc3")))
	if n, err := ss.ApplyFrames("shard1", 0, 1, overlap); err != nil || n != 1 {
		t.Fatalf("overlapping batch = %d, %v; want 1, nil", n, err)
	}
	recovered, err := ss.Recover("shard1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %d jobs, want 3 (no duplicates)", len(recovered))
	}
}

// TestStandbyGapForcesResync: skipping a sequence number is ErrGap;
// installing the snapshot a resync would ship repairs continuity and
// the stream continues after the snapshot's last record.
func TestStandbyGapForcesResync(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.ApplyFrames("s", 0, 1, frameFor(t, 1, acceptRec("aaa1"))); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.ApplyFrames("s", 0, 1, frameFor(t, 3, acceptRec("ccc3"))); !errors.Is(err, ErrGap) {
		t.Fatalf("seq gap err = %v, want ErrGap", err)
	}
	if _, err := ss.ApplyFrames("s", 0, 2, frameFor(t, 2, acceptRec("ccc3"))); !errors.Is(err, ErrGap) {
		t.Fatalf("gen change err = %v, want ErrGap", err)
	}
	// Resync: a gen 2 journal of 3 records, so the next live seq is 4.
	snap := batchOf(frameFor(t, 1, acceptRec("aaa1")), frameFor(t, 2, acceptRec("bbb2")), frameFor(t, 3, acceptRec("ccc3")))
	if n, err := ss.InstallSnapshot("s", 0, 2, snap); err != nil || n != 3 {
		t.Fatalf("snapshot installed %d records, %v; want 3", n, err)
	}
	if n, err := ss.ApplyFrames("s", 0, 2, frameFor(t, 4, acceptRec("ddd4"))); err != nil || n != 1 {
		t.Fatalf("post-snapshot frame = %d, %v", n, err)
	}
	recovered, err := ss.Recover("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 4 {
		t.Errorf("recovered %d jobs, want 4", len(recovered))
	}
}

// TestStandbyRestartDuringResync: the standby dies between a snapshot
// install and the stream catching up (and once more with a torn tail
// on disk). On reopen it recovers (gen, lastSeq) from the shipped
// copy, keeps accepting the stream where it left off, and flags
// anything discontiguous as a gap.
func TestStandbyRestartDuringResync(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := batchOf(frameFor(t, 1, acceptRec("aaa1")), frameFor(t, 2, acceptRec("bbb2")))
	if _, err := ss.InstallSnapshot("s", 0, 3, snap); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart mid-resync: state must come back from disk.
	ss2, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen, last := ss2.State("s"); gen != 3 || last != 2 {
		t.Fatalf("reopened state = gen %d seq %d, want 3/2", gen, last)
	}
	if n, err := ss2.ApplyFrames("s", 0, 3, frameFor(t, 3, acceptRec("ccc3"))); err != nil || n != 1 {
		t.Fatalf("resumed stream = %d, %v", n, err)
	}
	ss2.Close()

	// Tear the tail (half a frame hits disk) and restart again: the
	// torn record is dropped, continuity rewinds to the valid prefix.
	path := filepath.Join(dir, "s", shippedName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	ss3, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss3.Close()
	if gen, last := ss3.State("s"); gen != 3 || last != 2 {
		t.Fatalf("post-tear state = gen %d seq %d, want 3/2", gen, last)
	}
	// The dropped record re-ships as seq 3 — accepted, not a duplicate.
	if n, err := ss3.ApplyFrames("s", 0, 3, frameFor(t, 3, acceptRec("ccc3"))); err != nil || n != 1 {
		t.Fatalf("re-shipped torn record = %d, %v", n, err)
	}
	recovered, err := ss3.Recover("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Errorf("recovered %d jobs, want 3", len(recovered))
	}
}

// TestStandbyRecoverStates: done records (result marooned on the dead
// primary) re-run as pending; failed records stay failed.
func TestStandbyRecoverStates(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	batch := batchOf(
		frameFor(t, 1, acceptRec("aaa1")),
		frameFor(t, 2, acceptRec("bbb2")),
		frameFor(t, 3, acceptRec("ccc3")),
		frameFor(t, 4, Record{Op: OpDone, ID: "aaa1"}),
		frameFor(t, 5, Record{Op: OpFailed, ID: "bbb2", Err: "deterministic"}),
	)
	if _, err := ss.ApplyFrames("s", 0, 1, batch); err != nil {
		t.Fatal(err)
	}
	recovered, err := ss.Recover("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"aaa1": "pending", "bbb2": "failed", "ccc3": "pending"}
	if len(recovered) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(recovered), len(want))
	}
	for _, rj := range recovered {
		if rj.State != want[rj.ID] {
			t.Errorf("job %s state %q, want %q", rj.ID, rj.State, want[rj.ID])
		}
	}
}

// TestOpenStandbyRemovesCheckpointsDir: a standby that also received
// checkpoint blobs left them under <shard>/checkpoints/ for good.
// Opening the standby deletes that directory and keeps the shipped
// journal.
func TestOpenStandbyRemovesCheckpointsDir(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.ApplyFrames("s", 0, 1, frameFor(t, 1, acceptRec("aaa1"))); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	leak := filepath.Join(dir, "s", "checkpoints")
	if err := os.MkdirAll(leak, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(leak, "aaa1.ckpt"), []byte("blob"), 0o644); err != nil {
		t.Fatal(err)
	}

	ss2, err := OpenStandby(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if _, err := os.Stat(leak); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("checkpoints/ after reopen: stat err = %v, want not exist", err)
	}
	if gen, last := ss2.State("s"); gen != 1 || last != 1 {
		t.Errorf("reopened state = gen %d seq %d, want 1/1", gen, last)
	}
}
