package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"regvirt/internal/jobs"
)

func openT(t *testing.T, dir string) (*Store, []jobs.RecoveredJob) {
	t.Helper()
	s, recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, recovered
}

func fakeResult(id string) *jobs.Result {
	return &jobs.Result{ID: id, Kernel: "vecadd", Cycles: 1234, Instrs: 42, StoresDigest: "deadbeef"}
}

func TestAcceptReplayResume(t *testing.T) {
	dir := t.TempDir()
	s, recovered := openT(t, dir)
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d jobs", len(recovered))
	}
	jA := jobs.Job{Workload: "VectorAdd"}
	jB := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	jC := jobs.Job{Workload: "MUM"}
	if err := s.Accept("aaa1", jA, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("aaa1", jA, true); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Accept("bbb2", jB, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("ccc3", jC, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Done("aaa1", fakeResult("aaa1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Failed("ccc3", "sim: invariant violation"); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened store must reconstruct all three fates in acceptance
	// order: done (its result in the store), pending, failed.
	s2, recovered := openT(t, dir)
	defer s2.Close()
	if len(recovered) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(recovered))
	}
	byID := map[string]jobs.RecoveredJob{}
	for _, rj := range recovered {
		byID[rj.ID] = rj
	}
	if rj := byID["aaa1"]; rj.State != "done" || !rj.Async {
		t.Fatalf("aaa1 = %+v, want done", rj)
	}
	if res, ok := s2.LoadResult("aaa1"); !ok || res.Cycles != 1234 {
		t.Fatal("aaa1's persisted result does not load")
	}
	if rj := byID["bbb2"]; rj.State != "pending" || rj.Job.PhysRegs != 512 || rj.Async {
		t.Fatalf("bbb2 = %+v, want pending sync job", rj)
	}
	if rj := byID["ccc3"]; rj.State != "failed" || rj.Err != "sim: invariant violation" {
		t.Fatalf("ccc3 = %+v, want failed", rj)
	}
	if got := s2.PendingCount(); got != 1 {
		t.Fatalf("reopened pending = %d, want 1", got)
	}

	// Compaction on open keeps only the pending accept: a third open
	// sees just bbb2 in the journal, while aaa1's result stays
	// addressable through the result store.
	s2.Close()
	s3, recovered := openT(t, dir)
	defer s3.Close()
	if len(recovered) != 1 || recovered[0].ID != "bbb2" {
		t.Fatalf("post-compaction recovery = %+v, want only bbb2", recovered)
	}
	if res, ok := s3.LoadResult("aaa1"); !ok || res.Cycles != 1234 {
		t.Fatal("persisted result lost by compaction")
	}
}

func TestDoneWithoutResultFileReruns(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Accept("feed", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Done("feed", fakeResult("feed")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, resultsDir, "feed.json")); err != nil {
		t.Fatal(err)
	}
	s2, recovered := openT(t, dir)
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].State != "pending" {
		t.Fatalf("recovery = %+v, want the done-but-resultless job downgraded to pending", recovered)
	}
}

// TestLostDoneFrameConverges: Done does not fsync its journal frame, so
// a crash may lose it while the sealed result survives. The next open
// must count the job done from its result, not leave it pending at
// every later open (a re-run is a disk hit, which writes no done frame).
func TestLostDoneFrameConverges(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Accept("feed", jobs.Job{Workload: "VectorAdd"}, true); err != nil {
		t.Fatal(err)
	}
	acceptedSize := s.j.size
	if err := s.Done("feed", fakeResult("feed")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Lose the done frame: cut the journal back to the accept.
	if err := os.Truncate(filepath.Join(dir, journalName), acceptedSize); err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 2; open++ {
		s2, recovered := openT(t, dir)
		pending := s2.PendingCount()
		s2.Close()
		if pending != 0 {
			t.Fatalf("open %d: pending = %d, want 0 (recovered %+v)", open, pending, recovered)
		}
		if open == 1 && (len(recovered) != 1 || recovered[0].State != "done") {
			t.Fatalf("open 1: recovered %+v, want feed done", recovered)
		}
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept("bbb2", jobs.Job{Workload: "MUM"}, false); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A torn append leaves garbage at the tail; replay must keep the
	// intact prefix.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	s2, recovered := openT(t, dir)
	defer s2.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs after torn tail, want 2", len(recovered))
	}
	// The compaction rewrite must have dropped the garbage: a third
	// open replays cleanly too.
	s2.Close()
	s3, recovered := openT(t, dir)
	defer s3.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs after rewrite, want 2", len(recovered))
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false)
	s.Accept("bbb2", jobs.Job{Workload: "MUM"}, false)
	s.Close()

	// Flip a byte inside the SECOND record's payload: replay keeps the
	// first record (longest valid prefix), loses the second.
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := readJournal(raw)
	if len(recs) != 2 {
		t.Fatalf("fixture journal has %d records, want 2", len(recs))
	}
	first, _ := frameRecord(recs[0])
	raw[len(first)+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered := openT(t, dir)
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].ID != "aaa1" {
		t.Fatalf("recovery = %+v, want only the record before the corruption", recovered)
	}
}

func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	blob := []byte("opaque gob bytes")
	if _, ok := s.LoadCheckpoint("aaa1"); ok {
		t.Fatal("checkpoint present before save")
	}
	if err := s.SaveCheckpoint("aaa1", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadCheckpoint("aaa1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("LoadCheckpoint = %q, %v", got, ok)
	}
	// Done must clear the checkpoint: a finished job never resumes.
	s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false)
	s.Done("aaa1", fakeResult("aaa1"))
	if _, ok := s.LoadCheckpoint("aaa1"); ok {
		t.Fatal("checkpoint survived Done")
	}
}

// TestOpenRemovesCrashTemps: a crash between writeAtomic's create and
// its rename leaves a temp file beside its target. Opening the store
// deletes those in the data directory and checkpoints/, and opening a
// standby those in each shard copy's directory; every other file is
// left byte-identical, except the journal and its generation, which
// Open's compaction rewrites by design.
func TestOpenRemovesCrashTemps(t *testing.T) {
	dir := t.TempDir()
	sbDir := filepath.Join(dir, "standby")
	s, _ := openT(t, dir)
	s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false)
	if err := s.SaveCheckpoint("aaa1", []byte("opaque gob bytes")); err != nil {
		t.Fatal(err)
	}
	s.Accept("bbb2", jobs.Job{Workload: "MUM"}, false)
	if err := s.Done("bbb2", fakeResult("bbb2")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ss, err := OpenStandby(sbDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.ApplyFrames("s1", 2, 1, frameFor(t, 1, acceptRec("ccc3"))); err != nil {
		t.Fatal(err)
	}
	ss.Close()

	temps := []string{
		filepath.Join(dir, ".tmp-1234"),
		filepath.Join(dir, checkpointsDir, ".tmp-5678"),
		filepath.Join(sbDir, "s1", ".tmp-9012"),
	}
	for _, p := range temps {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewritten := map[string]bool{filepath.Join(dir, journalName): true, filepath.Join(dir, genName): true}
	before := map[string][]byte{}
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			t.Fatal(err)
		}
		if !d.IsDir() && !rewritten[p] && !strings.HasPrefix(d.Name(), tmpPrefix) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			before[p] = data
		}
		return nil
	})

	s2, recovered := openT(t, dir)
	defer s2.Close()
	ss2, err := OpenStandby(sbDir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	for _, p := range temps {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived the open (stat err %v)", p, err)
		}
	}
	for p, want := range before {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed across the open (err %v)", p, err)
		}
	}
	if len(recovered) != 2 || s2.PendingCount() != 1 {
		t.Errorf("recovered %+v with %d pending, want aaa1 pending and bbb2 done", recovered, s2.PendingCount())
	}
}

func TestRejectsUnsafeIDs(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	for _, id := range []string{"", "../../etc/passwd", "a/b", "a.b", "x y"} {
		if err := s.Accept(id, jobs.Job{Workload: "VectorAdd"}, false); err == nil {
			t.Errorf("Accept(%q) succeeded, want error", id)
		}
		if _, ok := s.LoadResult(id); ok {
			t.Errorf("LoadResult(%q) hit", id)
		}
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	s.Close()
	if err := s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false); err == nil {
		t.Fatal("Accept on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close must be a no-op:", err)
	}
}

func TestCompactionTriggersOnSize(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	// A kernel large enough that a few hundred accept/done pairs cross
	// the compaction threshold.
	big := jobs.Job{Kernel: string(bytes.Repeat([]byte("ADD R0, R0, R1\n"), 400))}
	res := fakeResult("x")
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("%08x", i)
		if err := s.Accept(id, big, false); err != nil {
			t.Fatal(err)
		}
		if err := s.Done(id, res); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > compactBytes {
		t.Fatalf("journal is %d bytes; compaction never fired", info.Size())
	}
}

// failNextAppend makes the store's next journal append fail after part
// of its frame reached the file, as a short write would: half of the
// frame rec would have written goes in through a second descriptor, and
// the store's handle is swapped for a read-only one, so its own write
// fails. The returned func puts the writable handle back.
func failNextAppend(t *testing.T, s *Store, rec Record) (restore func()) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.j.seq + 1
	frame, err := frameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.OpenFile(s.j.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	ro, err := os.Open(s.j.path)
	if err != nil {
		t.Fatal(err)
	}
	good := s.j.f
	s.j.f = ro
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.j.f = good
		ro.Close()
	}
}

// TestAppendFaultKeepsLaterAccepts: an append that fails after writing
// part of its frame must leave the journal at its last whole frame. A
// later accept, acknowledged and fsynced, must then survive a restart,
// not sit behind a torn frame that replay stops at.
func TestAppendFaultKeepsLaterAccepts(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	restore := failNextAppend(t, s, acceptRec("bbb2"))
	if err := s.Accept("bbb2", jobs.Job{Workload: "VectorAdd"}, false); err == nil {
		t.Fatal("Accept through a read-only journal handle succeeded")
	}
	restore()
	if err := s.Accept("ccc3", jobs.Job{Workload: "MUM"}, false); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, recovered := openT(t, dir)
	defer s2.Close()
	var got []string
	for _, rj := range recovered {
		if rj.State != "pending" {
			t.Errorf("%s recovered %s, want pending", rj.ID, rj.State)
		}
		got = append(got, rj.ID)
	}
	if want := []string{"aaa1", "ccc3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestAppendFaultUsesNoSeq: a failed append uses up no sequence number,
// so the frames shipped around it stay contiguous and a standby takes
// them without a gap (and the full resync a gap costs).
func TestAppendFaultUsesNoSeq(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	defer s.Close()
	sink := &captureSink{}
	gen := s.SetSink(sink)
	if err := s.Accept("aaa1", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	restore := failNextAppend(t, s, acceptRec("bbb2"))
	if err := s.Accept("bbb2", jobs.Job{Workload: "VectorAdd"}, false); err == nil {
		t.Fatal("Accept through a read-only journal handle succeeded")
	}
	restore()
	if err := s.Accept("ccc3", jobs.Job{Workload: "MUM"}, false); err != nil {
		t.Fatal(err)
	}
	if got := sink.seqs(t); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("shipped seqs %v, want [1 2]", got)
	}
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if n, err := ss.ApplyFrames("p", 0, gen, batchOf(sink.frames...)); err != nil || n != 2 {
		t.Fatalf("standby applied %d of the shipped frames, err %v; want 2, nil", n, err)
	}
}
