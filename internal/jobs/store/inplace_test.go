package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"regvirt/internal/jobs"
)

// TestTornResultIsAMiss: Done writes a result in place, so a crash
// mid-write can leave a torn file. The envelope's seal must make it a
// miss everywhere: LoadResult misses, Accept journals the job instead of
// taking it for finished, and Open counts the job pending.
func TestTornResultIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	tear := func(id string) {
		t.Helper()
		if err := s.Accept(id, jobs.Job{Workload: "VectorAdd"}, false); err != nil {
			t.Fatal(err)
		}
		if err := s.Done(id, fakeResult(id)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, resultsDir, id+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.LoadResult(id); ok {
			t.Fatalf("LoadResult served %s's torn result", id)
		}
	}
	tear("feed")
	if err := s.Accept("feed", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingCount(); got != 1 {
		t.Fatalf("pending after accepting a job with a torn result = %d, want 1", got)
	}
	tear("beef") // its accept and done frames are in the journal; no new accept follows
	s.Close()

	s2, recovered := openT(t, dir)
	defer s2.Close()
	for _, rj := range recovered {
		if rj.State != "pending" {
			t.Fatalf("recovered %s %s, want pending", rj.ID, rj.State)
		}
	}
	if len(recovered) != 2 || s2.PendingCount() != 2 {
		t.Fatalf("recovered %+v (pending %d), want feed and beef pending", recovered, s2.PendingCount())
	}
}

// TestSalvageRacingDoneReturnsNothing: Done writes results in place
// and Salvage reads them without the store lock, so a Salvage can read
// a file mid-write, which would re-run a job whose result is fine.
// Salvages racing the Dones of distinct jobs, each sealed with its
// spec, must return no job and leave every result loadable.
func TestSalvageRacingDoneReturnsNothing(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	defer s.Close()
	const n = 300
	specs, ids := make([]jobs.Job, n), make([]string, n)
	for i := range specs {
		specs[i] = jobs.Job{Workload: "VectorAdd", PhysRegs: 16 * (i + 1)}
		ids[i] = specs[i].Key()
	}
	var writing atomic.Int64 // index of the job whose result is being written
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i, id := range ids {
			writing.Store(int64(i))
			if err := s.Accept(id, specs[i], false); err != nil {
				t.Error(err)
				return
			}
			if err := s.Done(id, largeResult(id)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	salvaged := 0
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
		}
		if _, ok := s.Salvage(ids[writing.Load()]); ok {
			salvaged++
		}
	}
	if salvaged != 0 {
		t.Fatalf("Salvage returned a job %d times among in-place writes", salvaged)
	}
	for _, id := range ids {
		if _, ok := s.LoadResult(id); !ok {
			t.Fatalf("%s does not load after the race", id)
		}
	}
}

// largeResult is a result whose encoding spans several pages, so a
// write of it is not over in an instant.
func largeResult(id string) *jobs.Result {
	res := fakeResult(id)
	res.Profile = &jobs.ResultProfile{}
	for c := uint64(0); c < 400; c++ {
		res.Profile.Timeline = append(res.Profile.Timeline, jobs.ResultWarpSample{Cycle: c, States: []uint8{1, 2, 3, 4}})
	}
	return res
}

// TestCompactionSyncsResultsBeforeJournal: Done does not fsync
// results/, so a result's directory entry is durable only once
// something does. The compaction that drops a finished job's accept
// must fsync results/ while the journal still holds that accept.
func TestCompactionSyncsResultsBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	if err := s.Accept("feed", jobs.Job{Workload: "VectorAdd"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Done("feed", fakeResult("feed")); err != nil {
		t.Fatal(err)
	}
	journalNames := func() map[string]bool {
		raw, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Error(err)
		}
		recs, _ := readJournal(raw)
		ids := map[string]bool{}
		for _, rec := range recs {
			if rec.Op == OpAccept {
				ids[rec.ID] = true
			}
		}
		return ids
	}
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	resultsSynced := false
	syncDir = func(d string) {
		if d == filepath.Join(dir, resultsDir) {
			resultsSynced = true
			if !journalNames()["feed"] {
				t.Error("results/ fsynced after the journal rewrite dropped feed's accept")
			}
		}
		orig(d)
	}
	s.mu.Lock()
	err := s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsSynced {
		t.Fatal("compaction did not fsync results/")
	}
	if journalNames()["feed"] {
		t.Fatal("compaction kept the finished job's accept")
	}
}

// TestStandbyFailedAppendAppliesNothing: a batch is appended with one
// write, and a failed write must leave the copy's state where it was.
func TestStandbyFailedAppendAppliesNothing(t *testing.T) {
	ss, err := OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if n, err := ss.ApplyFrames("s", 0, 1, frameFor(t, 1, acceptRec("aaa1"))); err != nil || n != 1 {
		t.Fatalf("first frame: applied %d, err %v", n, err)
	}
	ss.mu.Lock()
	ss.shards["s"].j.f.Close() // every write now fails
	ss.mu.Unlock()
	batch := batchOf(frameFor(t, 2, acceptRec("bbb2")), frameFor(t, 3, acceptRec("ccc3")))
	n, err := ss.ApplyFrames("s", 0, 1, batch)
	if err == nil || errors.Is(err, ErrGap) || errors.Is(err, ErrBadFrame) || n != 0 {
		t.Fatalf("batch into a failing file: applied %d, err %v; want 0 and a write error", n, err)
	}
	if gen, last := ss.State("s"); gen != 1 || last != 1 {
		t.Fatalf("state after a failed append = (%d, %d), want (1, 1)", gen, last)
	}
	if st := ss.Status(); len(st) != 1 || st[0].Pending != 1 {
		t.Fatalf("status after a failed append = %+v, want 1 pending", st)
	}
}
