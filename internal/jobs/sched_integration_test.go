package jobs_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/sim"
)

// shortSpinTemplate is a quicker spin than spinKernel — long enough to
// keep a worker visibly busy, short enough that a test can run a dozen.
// The %d seed lands in dead register r6 so each instantiation gets its
// own content address without changing behaviour.
const shortSpinTemplate = `
.kernel shortspin
.reg 8
    s2r  r0, %%tid.x
    movi r6, %d
    movi r4, 0
    movi r5, 0
body:
    iadd r5, r5, r0
    iadd r4, r4, 1
    isetp.lt p0, r4, 8000
@p0 bra body
    shl  r7, r0, 2
    st.global [r7+0], r5
    exit
`

// spinJob returns a distinct short-spin job per index.
func spinJob(i int) jobs.Job {
	return jobs.Job{Kernel: fmt.Sprintf(shortSpinTemplate, i), GridCTAs: 2, ThreadsPerCTA: 32, ConcCTAs: 1}
}

// TestFairShareNoStarvation is the starvation bound: tenant "flood"
// submits 10x the jobs of tenant "trickle" at equal weight. Stride
// scheduling must interleave them — both trickle jobs finish while
// most of the flood backlog is still pending, and the quiet tenant is
// never shed or quota-refused.
func TestFairShareNoStarvation(t *testing.T) {
	const floodN, trickleN = 20, 2
	p := jobs.NewPoolWith(jobs.Options{
		Workers: 1, // single worker makes the interleaving visible
		Sched: sched.Config{
			Tenants: map[string]sched.TenantConfig{
				"flood":   {Weight: 1},
				"trickle": {Weight: 1, MaxQueued: 8},
			},
		},
	})
	defer p.Close()

	var (
		wg         sync.WaitGroup
		floodDone  atomic.Int64
		mu         sync.Mutex
		atTrickle  []int64 // flood completions observed at each trickle finish
		submitErrs = make(chan error, floodN+trickleN)
	)
	for i := 0; i < floodN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := spinJob(i)
			j.Tenant = "flood"
			if _, err := p.Submit(context.Background(), j); err != nil {
				submitErrs <- fmt.Errorf("flood %d: %w", i, err)
				return
			}
			floodDone.Add(1)
		}(i)
	}
	// Let most of the flood queue up before the trickle arrives.
	deadline := time.Now().Add(10 * time.Second)
	for p.Metrics().QueueDepth < floodN-5 {
		if time.Now().After(deadline) {
			t.Fatal("flood never queued")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < trickleN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := spinJob(100 + i) // distinct from every flood job
			j.Tenant = "trickle"
			if _, err := p.Submit(context.Background(), j); err != nil {
				submitErrs <- fmt.Errorf("trickle %d: %w", i, err)
				return
			}
			mu.Lock()
			atTrickle = append(atTrickle, floodDone.Load())
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(submitErrs)
	for err := range submitErrs {
		t.Error(err)
	}
	if len(atTrickle) != trickleN {
		t.Fatalf("%d trickle jobs finished, want %d", len(atTrickle), trickleN)
	}
	// The bound: with 1:1 weights the trickle tenant's jobs ride along
	// interleaved, so both must land while at least a quarter of the
	// flood is still outstanding. (A FIFO queue would hold them to the
	// very end: fd would be floodN or within a job of it.)
	for i, fd := range atTrickle {
		if fd > floodN*3/4 {
			t.Errorf("trickle job %d finished after %d/%d flood jobs — starved past the fair-share bound", i, fd, floodN)
		}
	}
	qs := p.Queues()
	for _, ts := range qs.Queues {
		if ts.Tenant != "trickle" {
			continue
		}
		if ts.Shed != 0 || ts.QuotaRejected != 0 {
			t.Errorf("trickle tenant shed=%d quota_rejected=%d, want 0/0", ts.Shed, ts.QuotaRejected)
		}
		if ts.Completed != trickleN {
			t.Errorf("trickle completed = %d, want %d", ts.Completed, trickleN)
		}
	}
}

// TestPreemptionDeterminism is the preemption proof: a low-priority
// job is checkpoint-interrupted by a high-priority arrival, resumes,
// and finishes with a result byte-identical to an uninterrupted run —
// and the high-priority job overtakes it.
func TestPreemptionDeterminism(t *testing.T) {
	low := jobs.Job{Kernel: spinKernel, GridCTAs: 2, ThreadsPerCTA: 64, ConcCTAs: 2}
	high := jobs.Job{Workload: "VectorAdd", PhysRegs: 512, Priority: 10}

	control, err := jobs.Execute(context.Background(), low)
	if err != nil {
		t.Fatal(err)
	}

	st, _ := openStoreT(t, t.TempDir())
	defer st.Close()
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st, CheckpointEvery: 2000})
	defer p.Close()

	var (
		order   = make(chan string, 2)
		lowRes  *jobs.Result
		highErr error
		lowErr  error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		lowRes, lowErr = p.Submit(context.Background(), low)
		order <- "low"
	}()
	// Wait until the low job has provably made progress (a periodic
	// checkpoint is on disk), then land the high-priority job.
	deadline := time.Now().Add(30 * time.Second)
	for p.Metrics().CheckpointsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("low job wrote no checkpoint within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, highErr = p.Submit(context.Background(), high)
		order <- "high"
	}()
	wg.Wait()
	if lowErr != nil || highErr != nil {
		t.Fatalf("low err %v, high err %v", lowErr, highErr)
	}
	if first := <-order; first != "high" {
		t.Errorf("completion order starts with %q, want the high-priority job to overtake", first)
	}
	if !bytes.Equal(control.JSON(), lowRes.JSON()) {
		t.Error("preempted-then-resumed result differs from the uninterrupted control")
	}
	m := p.Metrics()
	if m.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", m.Preemptions)
	}
	if m.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", m.Resumes)
	}
	// The victim's interrupt wrote an on-cancel checkpoint on top of
	// the periodic one it already had.
	if m.CheckpointsWritten < 2 {
		t.Errorf("checkpoints_written = %d, want >= 2 (periodic + preemption)", m.CheckpointsWritten)
	}
}

// TestBadCheckpointFallsBackToFreshRun: a decodable but unusable
// checkpoint (no SM state) makes Resume fail with ErrBadCheckpoint;
// the pool restarts the job from cycle 0 and determinism still yields
// the byte-identical result.
func TestBadCheckpointFallsBackToFreshRun(t *testing.T) {
	job := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	id := job.Key()
	control, err := jobs.Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, _ := openStoreT(t, dir)
	// Journal the job as accepted and plant an empty (decodable,
	// useless) checkpoint under its ID.
	if err := st.Accept(id, job, true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sim.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(id, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, recovered := openStoreT(t, dir)
	defer st2.Close()
	if len(recovered) != 1 || recovered[0].State != "pending" {
		t.Fatalf("recovered = %+v, want the planted job pending", recovered)
	}
	// Prove the planted blob really is the ErrBadCheckpoint case.
	if _, rerr := sim.Resume(sim.Config{}, sim.LaunchSpec{}, &sim.Checkpoint{}); !errors.Is(rerr, sim.ErrBadCheckpoint) {
		t.Fatalf("empty checkpoint resume: %v, want ErrBadCheckpoint", rerr)
	}

	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Store: st2})
	defer p.Close()
	if resumed := p.Restore(recovered); resumed != 1 {
		t.Fatalf("Restore resumed %d, want 1", resumed)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stt, ok := p.Status(id)
		if ok && stt.State == "done" {
			if !bytes.Equal(control.JSON(), stt.Result.JSON()) {
				t.Error("fresh-run fallback result differs from control")
			}
			break
		}
		if ok && stt.State == "failed" {
			t.Fatalf("job failed instead of falling back: %s", stt.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %+v after 30s", stt)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTenantNotInJobKey: identical jobs under different tenants and
// priorities share one content address, one simulation and one cached
// result.
func TestTenantNotInJobKey(t *testing.T) {
	a := jobs.Job{Workload: "VectorAdd", PhysRegs: 512, Tenant: "team-a", Priority: 3}
	b := jobs.Job{Workload: "VectorAdd", PhysRegs: 512, Tenant: "team-b"}
	c := jobs.Job{Workload: "VectorAdd", PhysRegs: 512}
	if a.Key() != b.Key() || b.Key() != c.Key() {
		t.Fatalf("keys differ across tenants: %s / %s / %s", a.Key(), b.Key(), c.Key())
	}

	p := jobs.NewPool(2)
	defer p.Close()
	ra, err := p.Submit(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p.Submit(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.JSON(), rb.JSON()) {
		t.Error("results differ across tenants")
	}
	m := p.Metrics()
	if m.Executed != 1 {
		t.Errorf("executed = %d, want 1 (second submit must dedup)", m.Executed)
	}
	if m.CacheHits+m.Deduped != 1 {
		t.Errorf("cache_hits+deduped = %d, want 1", m.CacheHits+m.Deduped)
	}
}

// TestQuotaTypedErrors: MaxQueued refusals are *sched.QuotaError with
// an honest retry hint; strict-mode and priority-cap refusals are
// *sched.AdmissionError. Neither counts as an overload shed.
func TestQuotaTypedErrors(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{
		Workers: 1,
		Sched: sched.Config{
			Strict: true,
			Tenants: map[string]sched.TenantConfig{
				"q": {Weight: 1, MaxQueued: 1, MaxRunning: 1, MaxPriority: 5},
			},
		},
	})
	defer p.Close()

	var ae *sched.AdmissionError
	if _, err := p.Submit(context.Background(), jobs.Job{Workload: "VectorAdd", Tenant: "stranger"}); !errors.As(err, &ae) {
		t.Fatalf("strict unknown tenant: %v, want AdmissionError", err)
	}
	if _, err := p.Submit(context.Background(), jobs.Job{Workload: "VectorAdd", Tenant: "q", Priority: 6}); !errors.As(err, &ae) {
		t.Fatalf("over-priority: %v, want AdmissionError", err)
	}

	// Pin the single worker on a gated Exec so queue state is stable
	// (transient queue depths can't be polled reliably: the simulator
	// starves 1ms timers by tens of ms), then fill q's one queued slot
	// and overflow it.
	gate := make(chan struct{})
	held := make(chan struct{})
	execDone := make(chan error, 1)
	go func() {
		execDone <- p.Exec(context.Background(), func() error {
			close(held)
			<-gate
			return nil
		})
	}()
	<-held

	qErr := make(chan error, 1)
	go func() {
		j := spinJob(0)
		j.Tenant = "q"
		_, err := p.Submit(context.Background(), j)
		qErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued := int64(0)
		for _, q := range p.Queues().Queues {
			if q.Tenant == "q" {
				queued = q.Queued
			}
		}
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("q's job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	j := spinJob(9)
	j.Tenant = "q"
	_, err := p.Submit(context.Background(), j)
	var qe *sched.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over MaxQueued: %v, want QuotaError", err)
	}
	if qe.Tenant != "q" || qe.Limit != 1 || qe.RetryAfter < 1000 {
		t.Errorf("QuotaError = %+v, want tenant q, limit 1, retry hint >= 1s", qe)
	}
	close(gate)
	if e := <-execDone; e != nil {
		t.Fatalf("held Exec failed: %v", e)
	}
	if e := <-qErr; e != nil {
		t.Errorf("admitted q job failed: %v", e)
	}
	m := p.Metrics()
	if m.QuotaRejected != 3 {
		t.Errorf("quota_rejected = %d, want 3 (2 admission + 1 quota)", m.QuotaRejected)
	}
	if m.Shed != 0 {
		t.Errorf("shed = %d, want 0 — policy refusals are not overload", m.Shed)
	}
}

// newSchedServer is newTestServer with scheduler options.
func newSchedServer(t *testing.T, opts jobs.Options) (*jobs.Pool, *httptest.Server) {
	t.Helper()
	p := jobs.NewPoolWith(opts)
	ts := httptest.NewServer(jobs.NewServer(p).Handler())
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return p, ts
}

// TestHTTPTenantSurface covers the wire-level tenant contract: the
// X-Regvd-Tenant header routes the job, the response echoes the
// tenant, /v1/queues reports per-tenant state, and policy refusals are
// structured 403s.
func TestHTTPTenantSurface(t *testing.T) {
	_, ts := newSchedServer(t, jobs.Options{
		Workers: 2,
		Sched: sched.Config{
			Strict: true,
			Tenants: map[string]sched.TenantConfig{
				"gold": {Weight: 4, MaxPriority: 10},
			},
		},
	})

	// Header names the tenant; the response echoes it.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"workload":"VectorAdd","physregs":512}`))
	req.Header.Set(jobs.TenantHeader, "gold")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Tenant != "gold" {
		t.Fatalf("status %d tenant %q, want 200/gold", resp.StatusCode, res.Tenant)
	}

	// Unknown tenant under strict admission: 403 kind "admission".
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"workload":"VectorAdd","tenant":"stranger"}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr jobs.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || apiErr.Kind != "admission" {
		t.Fatalf("strict refusal: status %d kind %q, want 403/admission", resp.StatusCode, apiErr.Kind)
	}

	// Over-priority: also 403 admission.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"VectorAdd","tenant":"gold","priority":11}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || apiErr.Kind != "admission" {
		t.Fatalf("priority refusal: status %d kind %q, want 403/admission", resp.StatusCode, apiErr.Kind)
	}

	// Invalid tenant names are 400s, not 500s.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"VectorAdd","tenant":"bad tenant!"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant name: status %d, want 400: %s", resp.StatusCode, body)
	}

	// /v1/queues shows the configured tenant with its traffic.
	var qs jobs.QueuesSnapshot
	qresp, err := http.Get(ts.URL + "/v1/queues")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(qresp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if !qs.Strict {
		t.Error("queues strict=false, want true")
	}
	found := false
	for _, q := range qs.Queues {
		if q.Tenant == "gold" {
			found = true
			if q.Weight != 4 || q.Submitted != 1 || q.Completed != 1 {
				t.Errorf("gold queue = %+v, want weight 4, 1 submitted, 1 completed", q)
			}
		}
	}
	if !found {
		t.Error("gold tenant missing from /v1/queues")
	}
}

// TestStrictRefusedTenantsGetNoRow: a refusal that leaves its tenant
// without a row is counted pool-wide only. A strict pool configured with
// "gold" refuses 200 unknown tenant names; /v1/queues then holds exactly
// "default" and "gold", and quota_rejected reads 200.
func TestStrictRefusedTenantsGetNoRow(t *testing.T) {
	p, ts := newSchedServer(t, jobs.Options{
		Workers: 1,
		Sched: sched.Config{
			Strict:  true,
			Tenants: map[string]sched.TenantConfig{"gold": {Weight: 4}},
		},
	})
	for i := 0; i < 200; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"workload":"VectorAdd","tenant":"stranger-%d"}`, i))
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("stranger %d: status %d, want 403: %s", i, resp.StatusCode, body)
		}
	}
	var qs jobs.QueuesSnapshot
	qresp, err := http.Get(ts.URL + "/v1/queues")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(qresp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	var names []string
	for _, q := range qs.Queues {
		names = append(names, q.Tenant)
	}
	if got := strings.Join(names, ","); got != "default,gold" {
		t.Errorf("/v1/queues rows = %s, want default,gold", got)
	}
	if m := p.Metrics(); m.QuotaRejected != 200 {
		t.Errorf("quota_rejected = %d, want 200", m.QuotaRejected)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
