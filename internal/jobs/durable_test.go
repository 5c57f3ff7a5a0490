package jobs_test

// Pool-level durability tests: the journal/result/checkpoint store
// wired into a live pool. These are in-process versions of what
// cmd/regvd's recovery harness does with SIGKILL — the pool is
// "killed" by Interrupt+Close and "restarted" by opening a fresh pool
// on the same data directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// spinKernel loops long enough that a test can reliably interrupt it
// mid-flight (~50k iterations per warp).
const spinKernel = `
.kernel spin
.reg 8
    s2r  r0, %tid.x
    movi r4, 0
    movi r5, 0
body:
    iadd r5, r5, r0
    iadd r4, r4, 1
    isetp.lt p0, r4, 50000
@p0 bra body
    shl  r7, r0, 2
    st.global [r7+0], r5
    exit
`

func openStoreT(t *testing.T, dir string) (*store.Store, []jobs.RecoveredJob) {
	t.Helper()
	st, recovered, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, recovered
}

// TestTraceStoreDone: persisting a result has a span of its own, a
// child of the job's sim.run span that lies inside it.
func TestTraceStoreDone(t *testing.T) {
	st, _ := openStoreT(t, t.TempDir())
	defer st.Close()
	tr := obs.NewTracer("jobsd")
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st, Tracer: tr})
	defer p.Close()
	ctx, root := tr.Start(context.Background(), "test")
	if _, err := p.Submit(ctx, jobs.Job{Workload: "VectorAdd", PhysRegs: 512}); err != nil {
		t.Fatal(err)
	}
	root.End()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range tr.Trace(root.Context().TraceID) {
		byName[sp.Name] = sp
	}
	run, ok := byName["sim.run"]
	if !ok {
		t.Fatalf("trace has no sim.run span: %+v", byName)
	}
	done, ok := byName["store.done"]
	if !ok {
		t.Fatalf("trace has no store.done span: %+v", byName)
	}
	if done.Parent != run.SpanID {
		t.Errorf("store.done's parent is %q, want sim.run's span %q", done.Parent, run.SpanID)
	}
	if done.StartNS < run.StartNS || done.StartNS+done.DurNS > run.StartNS+run.DurNS {
		t.Errorf("store.done [%d, +%d] lies outside sim.run [%d, +%d]", done.StartNS, done.DurNS, run.StartNS, run.DurNS)
	}
	if done.Error != "" {
		t.Errorf("store.done carries error %q", done.Error)
	}
}

// TestDurableResultSurvivesRestart: a result computed by one pool life
// is served from disk by the next — without re-simulating — and stays
// addressable by ID.
func TestDurableResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}

	st, _ := openStoreT(t, dir)
	p := jobs.NewPoolWith(jobs.Options{Workers: 2, Store: st})
	first, err := p.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.ResultsPersisted != 1 {
		t.Fatalf("results_persisted = %d, want 1", m.ResultsPersisted)
	}
	p.Close()
	st.Close()

	st2, recovered := openStoreT(t, dir)
	defer st2.Close()
	if len(recovered) != 1 || recovered[0].State != "done" {
		t.Fatalf("recovered = %+v, want one done job", recovered)
	}
	p2 := jobs.NewPoolWith(jobs.Options{Workers: 2, Store: st2})
	defer p2.Close()

	// Addressable by ID before any submission (the Status disk tier).
	if stt, ok := p2.Status(job.Key()); !ok || stt.State != "done" {
		t.Fatalf("Status(%s) = %+v, %v after restart", job.Key(), stt, ok)
	}
	// Re-submission is a disk hit, not a re-simulation.
	again, err := p2.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.JSON(), again.JSON()) {
		t.Fatal("restarted pool served a different result")
	}
	if m := p2.Metrics(); m.DiskHits != 1 {
		t.Fatalf("disk_hits = %d, want 1", m.DiskHits)
	}
}

// TestEvictedResultServedFromDisk: the store backstops the bounded
// result cache — a result evicted from memory comes back as a disk hit,
// byte-identical, without re-simulating.
func TestEvictedResultServedFromDisk(t *testing.T) {
	st, _ := openStoreT(t, t.TempDir())
	defer st.Close()
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st})
	defer p.Close()
	jobs.SetResultCacheBound(p, 1)

	a := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	first, err := p.Submit(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// A second job takes the only slot, evicting a's result.
	if _, err := p.Submit(context.Background(), jobs.Job{Workload: "VectorAdd", PhysRegs: 1024}); err != nil {
		t.Fatal(err)
	}
	before := p.Metrics()
	if before.ResultCache.Evictions != 1 {
		t.Fatalf("result cache evictions = %d, want 1", before.ResultCache.Evictions)
	}
	again, err := p.Submit(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.JSON(), again.JSON()) {
		t.Fatal("evicted result came back different from disk")
	}
	if m := p.Metrics(); m.DiskHits != before.DiskHits+1 || m.ResultsPersisted != before.ResultsPersisted {
		t.Fatalf("disk_hits %d→%d, results_persisted %d→%d; want one disk hit and no re-simulation",
			before.DiskHits, m.DiskHits, before.ResultsPersisted, m.ResultsPersisted)
	}
}

// TestAsyncSubmitOfFinishedJob: an async submit of a job whose result
// is already cached, or on disk, is answered from there. The 202 says
// done and carries the result, and the journal gains no accept, which
// nothing would ever close: every later open would re-run the job.
func TestAsyncSubmitOfFinishedJob(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStoreT(t, dir)
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st})
	want, err := p.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// The first pool answers from its result cache, a fresh pool on the
	// same store from disk.
	for _, tier := range []string{"cache", "disk"} {
		if tier == "disk" {
			p.Close()
			p = jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st})
		}
		srv := httptest.NewServer(jobs.NewServer(p).Handler())
		resp, err := http.Post(srv.URL+"/v1/jobs?async=1", "application/json",
			strings.NewReader(`{"workload":"VectorAdd","physregs":512}`))
		if err != nil {
			t.Fatal(err)
		}
		var got jobs.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := st.PendingCount(); n != 0 {
			t.Fatalf("%s: %d journal accepts left open, want 0", tier, n)
		}
		if resp.StatusCode != http.StatusAccepted || got.State != "done" || got.Result == nil ||
			!bytes.Equal(got.Result.JSON(), want.JSON()) {
			t.Fatalf("%s: HTTP %d, status %+v; want 202 done with the result", tier, resp.StatusCode, got)
		}
	}
	p.Close()
	st.Close()
	st2, recovered := openStoreT(t, dir)
	defer st2.Close()
	p2 := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st2})
	defer p2.Close()
	if resumed := p2.Restore(recovered); resumed != 0 {
		t.Fatalf("reopen re-ran %d jobs, want 0", resumed)
	}
}

// staleStore is a store whose first LoadResult misses, as a lookup does
// that runs just before a concurrent run of the same job seals its
// result.
type staleStore struct {
	*store.Store
	missed atomic.Bool
}

func (s *staleStore) LoadResult(id string) (*jobs.Result, bool) {
	if s.missed.CompareAndSwap(false, true) {
		return nil, false
	}
	return s.Store.LoadResult(id)
}

// TestAsyncAcceptAfterResultSealed: an async submit whose lookup missed
// a result sealed just after it journals no accept, so none is left
// open, and the job still finishes done.
func TestAsyncAcceptAfterResultSealed(t *testing.T) {
	st, _ := openStoreT(t, t.TempDir())
	defer st.Close()
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st})
	if _, err := p.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p = jobs.NewPoolWith(jobs.Options{Workers: 1, Store: &staleStore{Store: st}})
	defer p.Close()
	id, err := p.SubmitAsync(job)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stt, _ := p.Status(id)
		if stt.State == "done" {
			break
		}
		if stt.State != "running" || time.Now().After(deadline) {
			t.Fatalf("status %+v, want done", stt)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := st.PendingCount(); n != 0 {
		t.Fatalf("%d journal accepts left open, want 0", n)
	}
}

// TestInterruptCheckpointResume is the graceful-drain contract: an
// interrupted pool checkpoints its in-flight job; a pool restarted on
// the same directory resumes it and finishes with a result
// byte-identical to a never-interrupted run.
func TestInterruptCheckpointResume(t *testing.T) {
	job := jobs.Job{Kernel: spinKernel, GridCTAs: 2, ThreadsPerCTA: 64, ConcCTAs: 2}
	id := job.Key()

	control, err := jobs.Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, _ := openStoreT(t, dir)
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st, CheckpointEvery: 2000})
	if _, err := p.SubmitAsync(job); err != nil {
		t.Fatal(err)
	}
	// Let it run until at least one periodic checkpoint is on disk,
	// then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for p.Metrics().CheckpointsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Interrupt()
	p.Close()
	if got := st.PendingCount(); got != 1 {
		t.Fatalf("pending after interrupt = %d, want 1 (the job must stay journaled)", got)
	}
	st.Close()

	// "Restart": replay the journal, resume from the checkpoint.
	st2, recovered := openStoreT(t, dir)
	defer st2.Close()
	if len(recovered) != 1 || recovered[0].State != "pending" {
		t.Fatalf("recovered = %+v, want the interrupted job pending", recovered)
	}
	if _, ok := st2.LoadCheckpoint(id); !ok {
		t.Fatal("interrupted job left no checkpoint")
	}
	p2 := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st2, CheckpointEvery: 2000})
	defer p2.Close()
	if resumed := p2.Restore(recovered); resumed != 1 {
		t.Fatalf("Restore resumed %d jobs, want 1", resumed)
	}
	if m := p2.Metrics(); m.JournalReplayed != 1 {
		t.Fatalf("journal_replayed = %d, want 1", m.JournalReplayed)
	}

	var final jobs.JobStatus
	deadline = time.Now().Add(60 * time.Second)
	for {
		stt, ok := p2.Status(id)
		if ok && stt.State != "running" {
			final = stt
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job did not finish (status %+v, %v)", stt, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("resumed job ended %q (%s)", final.State, final.Error)
	}
	if !bytes.Equal(control.JSON(), final.Result.JSON()) {
		t.Fatal("resumed result differs from the uninterrupted control run")
	}
	// The resumed result is durable too: the journal entry is closed.
	if got := st2.PendingCount(); got != 0 {
		t.Fatalf("pending after resume = %d, want 0", got)
	}
}

// TestDeterministicFailureNotResumed: a job that fails the same way
// every time is journaled as failed and must not be re-enqueued by a
// restart.
func TestDeterministicFailureNotResumed(t *testing.T) {
	dir := t.TempDir()
	// An unparseable inline kernel fails deterministically.
	job := jobs.Job{Kernel: "this is not assembly"}

	st, _ := openStoreT(t, dir)
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st})
	if _, err := p.Submit(context.Background(), job); err == nil {
		t.Fatal("broken kernel succeeded")
	}
	p.Close()
	st.Close()

	st2, recovered := openStoreT(t, dir)
	defer st2.Close()
	if len(recovered) != 1 || recovered[0].State != "failed" {
		t.Fatalf("recovered = %+v, want one failed job", recovered)
	}
	p2 := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st2})
	defer p2.Close()
	if resumed := p2.Restore(recovered); resumed != 0 {
		t.Fatalf("Restore re-enqueued %d failed jobs", resumed)
	}
	if stt, ok := p2.Status(job.Key()); !ok || stt.State != "failed" {
		t.Fatalf("Status = %+v, %v, want the failure visible", stt, ok)
	}
}
