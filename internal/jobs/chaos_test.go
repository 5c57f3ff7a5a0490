// Chaos suite: the acceptance test of the fault-containment stack.
// It lives in package jobs_test (not jobs) because it drives the
// service through internal/jobs/client, which imports internal/jobs.
package jobs_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/jobs/store"
	"regvirt/internal/sim"
)

// TestSiteNamesMatchSim pins the sim package's redeclared fault-site
// names to the canonical faultinject constants (sim must not import
// faultinject, so the compiler cannot check this).
func TestSiteNamesMatchSim(t *testing.T) {
	if sim.FaultSiteAlloc != faultinject.SiteSimAlloc {
		t.Errorf("sim.FaultSiteAlloc = %q, faultinject.SiteSimAlloc = %q", sim.FaultSiteAlloc, faultinject.SiteSimAlloc)
	}
	if sim.FaultSiteMemAccept != faultinject.SiteSimMemAccept {
		t.Errorf("sim.FaultSiteMemAccept = %q, faultinject.SiteSimMemAccept = %q", sim.FaultSiteMemAccept, faultinject.SiteSimMemAccept)
	}
	for _, site := range faultinject.Sites() {
		if site == "" {
			t.Error("empty canonical site name")
		}
	}
}

// chaosService boots a pool (with the given injector) behind a real
// HTTP server and returns a retrying client against it.
func chaosService(t *testing.T, opts jobs.Options) (*jobs.Pool, *httptest.Server, *client.Client) {
	t.Helper()
	p := jobs.NewPoolWith(opts)
	ts := httptest.NewServer(jobs.NewServer(p).Handler())
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	c := client.New(ts.URL,
		client.WithSeed(42),
		client.WithPolicy(client.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}))
	return p, ts, c
}

// TestChaosMixedLoadUnderFaults is the headline drill: 200 mixed
// sync/async submissions over 20 unique configurations, spread across
// three weighted tenants at mixed priorities, with faults armed at
// every registered site — transient errors, 1ms latency spikes, and
// real panics on the worker path, plus bounded simulator faults that
// exercise the invariant-error path. The daemon must not crash, every
// job must eventually succeed (faults are transient or Times-capped,
// and failures are never cached), duplicate configurations must agree
// even across tenants, and the metrics arithmetic must survive all of
// it. Run it under -race: the containment and scheduling layers are
// concurrency machinery.
func TestChaosMixedLoadUnderFaults(t *testing.T) {
	inj := faultinject.New(1234,
		faultinject.Rule{Site: faultinject.SitePoolTask, Kind: faultinject.KindPanic, Every: 6, Times: 4},
		faultinject.Rule{Site: faultinject.SitePoolTask, Kind: faultinject.KindError, Every: 5, Times: 4},
		faultinject.Rule{Site: faultinject.SitePoolTask, Kind: faultinject.KindLatency, Every: 3, Delay: time.Millisecond},
		faultinject.Rule{Site: faultinject.SiteCacheFill, Kind: faultinject.KindError, Every: 7, Times: 3},
		faultinject.Rule{Site: faultinject.SiteSimAlloc, Kind: faultinject.KindError, Every: 1, Times: 2},
		faultinject.Rule{Site: faultinject.SiteSimMemAccept, Kind: faultinject.KindError, Every: 1, Times: 2},
		// ENOSPC on the durability layer: a journal append failing makes
		// the submission a retryable 503 ("disk_full"); a result-persist
		// failure leaves the in-memory result intact.
		faultinject.Rule{Site: faultinject.SiteStoreAppend, Kind: faultinject.KindError, Every: 25, Times: 3, Err: syscall.ENOSPC},
		faultinject.Rule{Site: faultinject.SiteStorePersist, Kind: faultinject.KindError, Every: 15, Times: 2, Err: syscall.ENOSPC},
	)
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaults(inj)
	t.Cleanup(func() { st.Close() })
	tenants := []string{"gold", "silver", "bronze"}
	pool, _, c := chaosService(t, jobs.Options{Workers: 4, Faults: inj, Store: st,
		Sched: sched.Config{Tenants: map[string]sched.TenantConfig{
			"gold": {Weight: 4}, "silver": {Weight: 2}, "bronze": {Weight: 1},
		}}})

	// 20 unique configurations, each submitted 10 times (half sync,
	// half async) from 16 goroutines, rotating through the tenants and
	// priorities -3..3.
	type outcome struct {
		cfg    int
		cycles uint64
		id     string
	}
	const uniqueCfgs, repeats = 20, 10
	jobFor := func(i, cfg int) jobs.Job {
		return jobs.Job{
			Workload: "VectorAdd",
			PhysRegs: 512 + 16*(cfg%10),
			Mode:     []string{"compiler", "hwonly"}[cfg/10],
			Tenant:   tenants[i%len(tenants)],
			Priority: i%7 - 3,
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var (
		mu       sync.Mutex
		outcomes []outcome
		fatalErr error
	)
	work := make(chan int, uniqueCfgs*repeats)
	for i := 0; i < uniqueCfgs*repeats; i++ {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				cfg := i % uniqueCfgs
				job := jobFor(i, cfg)
				res, err := submitUntilSuccess(ctx, c, job, i%2 == 1)
				mu.Lock()
				if err != nil && fatalErr == nil {
					fatalErr = fmt.Errorf("job %d (cfg %d): %w", i, cfg, err)
				}
				if res != nil {
					outcomes = append(outcomes, outcome{cfg: cfg, cycles: res.Cycles, id: res.ID})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fatalErr != nil {
		t.Fatal(fatalErr)
	}
	if len(outcomes) != uniqueCfgs*repeats {
		t.Fatalf("%d successful jobs, want %d", len(outcomes), uniqueCfgs*repeats)
	}

	// Duplicate configurations agree bit for bit on cycles and ID.
	byCfg := map[int]outcome{}
	for _, o := range outcomes {
		if o.cycles == 0 || o.id == "" {
			t.Fatalf("cfg %d: incomplete result %+v", o.cfg, o)
		}
		if prev, ok := byCfg[o.cfg]; ok {
			if prev.cycles != o.cycles || prev.id != o.id {
				t.Errorf("cfg %d: inconsistent results %+v vs %+v", o.cfg, prev, o)
			}
		} else {
			byCfg[o.cfg] = o
		}
	}

	// Every registered fault site actually fired: the drill covered the
	// whole surface, not just the easy layers.
	for _, site := range faultinject.Sites() {
		if inj.Fired(site) == 0 {
			t.Errorf("site %s never injected a fault (hits: %d)", site, inj.Hits(site))
		}
	}

	// Every tracked ID resolves to done-with-result over HTTP.
	for cfg, o := range byCfg {
		st, err := c.Status(ctx, o.id)
		if err != nil || st.State != "done" || st.Result == nil || st.Result.Cycles != o.cycles {
			t.Errorf("cfg %d id %s: status %+v err %v, want done with %d cycles", cfg, o.id, st, err, o.cycles)
		}
	}

	// The metrics arithmetic survives injected errors, panics and
	// retries; the pool is fully idle; panics were genuinely recovered;
	// and the result cache holds exactly the unique successes — no
	// failure was ever cached.
	m := pool.Metrics()
	if m.Submitted != m.Completed+m.Failed {
		t.Errorf("submitted %d != completed %d + failed %d", m.Submitted, m.Completed, m.Failed)
	}
	if m.Submitted != m.Executed+m.Deduped+m.CacheHits {
		t.Errorf("submitted %d != executed %d + deduped %d + cache_hits %d",
			m.Submitted, m.Executed, m.Deduped, m.CacheHits)
	}
	if m.QueueDepth != 0 || m.Running != 0 {
		t.Errorf("idle pool: queue_depth %d, running %d", m.QueueDepth, m.Running)
	}
	if m.PanicsRecovered == 0 {
		t.Error("panics_recovered = 0 with panic faults armed")
	}
	if m.Failed == 0 {
		t.Error("failed = 0: injected faults never surfaced, drill proved nothing")
	}
	if m.ResultCache.Failures == 0 {
		t.Error("result cache saw no failed fills")
	}
	if m.ResultCache.Entries != uniqueCfgs {
		t.Errorf("result cache entries = %d, want %d unique successes (failures must not be cached)",
			m.ResultCache.Entries, uniqueCfgs)
	}
	// Per-tenant accounting is coherent: every tenant's traffic was
	// tracked, nobody was shed or quota-refused (no caps were set), and
	// the per-tenant counters sum to the pool totals.
	var sumSubmitted, sumCompleted uint64
	perTenant := map[string]sched.QueueStat{}
	for _, q := range pool.Queues().Queues {
		perTenant[q.Tenant] = q
		sumSubmitted += q.Submitted
		sumCompleted += q.Completed
	}
	for _, tn := range tenants {
		q, ok := perTenant[tn]
		if !ok {
			t.Errorf("tenant %q missing from queues snapshot", tn)
			continue
		}
		if q.Submitted == 0 || q.Completed == 0 {
			t.Errorf("tenant %q: submitted=%d completed=%d, want traffic", tn, q.Submitted, q.Completed)
		}
		if q.Shed != 0 || q.QuotaRejected != 0 {
			t.Errorf("tenant %q: shed=%d quota_rejected=%d, want 0/0 (no caps configured)", tn, q.Shed, q.QuotaRejected)
		}
		if q.Resumes > q.Preemptions {
			t.Errorf("tenant %q: resumes %d > preemptions %d", tn, q.Resumes, q.Preemptions)
		}
	}
	if sumSubmitted != m.Submitted || sumCompleted != m.Completed {
		t.Errorf("tenant sums submitted=%d completed=%d, pool says %d/%d",
			sumSubmitted, sumCompleted, m.Submitted, m.Completed)
	}
	// The server is still healthy after the storm. (Client-level retry
	// of panic 500s is pinned deterministically by
	// TestPanicOverHTTPRetriedByClient — here whether a panic lands on
	// a sync or an async filler is interleaving-dependent.)
	if status, err := c.Healthz(ctx); err != nil || status != "ok" {
		t.Errorf("healthz after chaos: %q, %v", status, err)
	}
}

// submitUntilSuccess pushes one job through the chaos: the client
// already retries transport-level transients (429/503/panic-500s);
// this loop additionally resubmits failures the client correctly
// refuses to retry on its own (injected invariant errors are
// deterministic per *simulation*, but Times-capped here, so a fresh
// run succeeds).
func submitUntilSuccess(ctx context.Context, c *client.Client, job jobs.Job, async bool) (*jobs.Result, error) {
	var lastErr error
	for attempt := 0; attempt < 30; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w (last: %v)", err, lastErr)
		}
		var (
			res *jobs.Result
			err error
		)
		if async {
			var id string
			if id, err = c.SubmitAsync(ctx, job); err == nil {
				res, err = c.Wait(ctx, id, 2*time.Millisecond)
			}
		} else {
			res, err = c.Submit(ctx, job)
		}
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("still failing after 30 rounds: %w", lastErr)
}

// TestShedDepthExact: the shed limit is exact. With the one worker held
// and a shed depth of 4, 12 concurrent unique submits leave exactly 4
// queued; the other 8 get *OverloadError and are counted as shed, on
// the pool and on the tenant's row.
func TestShedDepthExact(t *testing.T) {
	const depth, submits = 4, 12
	pool := jobs.NewPool(1)
	defer pool.Close()
	jobs.SetShedDepth(pool, depth)

	block, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	go pool.Exec(context.Background(), func() error { close(held); <-block; return nil })
	<-held

	var (
		wg, start sync.WaitGroup
		shed      atomic.Int64
		errs      = make(chan error, submits)
	)
	start.Add(1)
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			_, err := pool.Submit(context.Background(), jobs.Job{Workload: "VectorAdd", PhysRegs: 512 + 16*i, Tenant: "burst"})
			var oe *jobs.OverloadError
			switch {
			case errors.As(err, &oe):
				shed.Add(1)
			case err != nil:
				errs <- err
			}
		}(i)
	}
	start.Done()
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load()+pool.Metrics().QueueDepth < submits {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d shed, %d queued of %d submits", shed.Load(), pool.Metrics().QueueDepth, submits)
		}
		time.Sleep(time.Millisecond)
	}
	if q := pool.Metrics().QueueDepth; q != depth || shed.Load() != submits-depth {
		t.Errorf("%d queued, %d shed; want %d queued, %d shed", q, shed.Load(), depth, submits-depth)
	}
	m := pool.Metrics()
	if m.Shed != submits-depth || m.Tenants["burst"].Shed != submits-depth {
		t.Errorf("shed = %d, burst's row %d; want %d", m.Shed, m.Tenants["burst"].Shed, submits-depth)
	}
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("queued submit failed: %v", err)
	}
}

// TestShedUnderOverload wedges a 1-worker pool, fills the queue past a
// shed depth of 1, and asserts the full overload contract: HTTP 429, a
// Retry-After header of at least a second, a structured body with the
// retry hint, the Shed counter, and a degraded /healthz.
func TestShedUnderOverload(t *testing.T) {
	pool, ts, c := chaosService(t, jobs.Options{Workers: 1})
	jobs.SetShedDepth(pool, 1)

	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // first occupies the worker, second occupies the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Exec(context.Background(), func() error { <-block; return nil })
		}()
	}
	defer func() { close(block); wg.Wait() }()

	// Wait for queued >= shed depth.
	deadline := time.Now().Add(10 * time.Second)
	for !pool.Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("pool never reached the shed depth")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"VectorAdd"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want >= 1 second", ra)
	}
	var apiErr jobs.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Kind != "overloaded" || apiErr.RetryAfterMS < 1000 {
		t.Errorf("body = %+v, want kind overloaded with retry_after_ms >= 1000", apiErr)
	}
	if got := pool.Metrics().Shed; got == 0 {
		t.Error("shed counter not incremented")
	}
	if status, err := c.Healthz(context.Background()); err != nil || status != "degraded" {
		t.Errorf("healthz while shedding = %q, %v; want degraded", status, err)
	}
	if c.Metrics().Overloads != 0 {
		t.Error("healthz probe should not count as an overload")
	}
}

// TestInvariantErrorOverHTTP: a kernel that trips a simulator
// invariant returns a structured 500 carrying cycle/warp context — and
// the daemon keeps serving afterwards.
func TestInvariantErrorOverHTTP(t *testing.T) {
	inj := faultinject.New(7, faultinject.Rule{
		Site: faultinject.SiteSimAlloc, Kind: faultinject.KindError, Every: 1, Times: 1,
	})
	_, ts, _ := chaosService(t, jobs.Options{Workers: 2, Faults: inj})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"VectorAdd"}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr jobs.APIError
	derr := json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusInternalServerError || apiErr.Kind != "invariant" {
		t.Fatalf("status %d kind %q, want 500/invariant: %+v", resp.StatusCode, apiErr.Kind, apiErr)
	}
	if apiErr.Invariant == nil || apiErr.Invariant.Msg == "" || apiErr.Invariant.Warp < 0 {
		t.Errorf("invariant context missing: %+v", apiErr.Invariant)
	}

	// The fault was Times-capped: the daemon serves the same job fine now.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"VectorAdd"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res jobs.Result
	if derr := json.NewDecoder(resp2.Body).Decode(&res); derr != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not keep serving after invariant 500: status %d, %v", resp2.StatusCode, derr)
	}
	if res.Cycles == 0 {
		t.Error("post-invariant result incomplete")
	}
}

// TestPanicOverHTTPRetriedByClient: an injected worker panic surfaces
// as a 500 of kind "panic", which the client retries transparently —
// the caller just sees the result.
func TestPanicOverHTTPRetriedByClient(t *testing.T) {
	inj := faultinject.New(9, faultinject.Rule{
		Site: faultinject.SitePoolTask, Kind: faultinject.KindPanic, Every: 1, Times: 1,
	})
	pool, _, c := chaosService(t, jobs.Options{Workers: 2, Faults: inj})
	res, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"})
	if err != nil {
		t.Fatalf("Submit through panic: %v", err)
	}
	if res.Cycles == 0 {
		t.Error("incomplete result")
	}
	if c.Metrics().Retries == 0 {
		t.Error("client reports no retries; the panic path was not exercised")
	}
	if pool.Metrics().PanicsRecovered == 0 {
		t.Error("pool reports no recovered panics")
	}
}

// TestDeterministicFaultCounts: two identically seeded services under
// an identical serialized load inject exactly the same number of
// faults per site — the reproducibility contract -fault-seed promises.
func TestDeterministicFaultCounts(t *testing.T) {
	run := func() map[string]uint64 {
		inj := faultinject.New(77,
			faultinject.Rule{Site: faultinject.SitePoolTask, Kind: faultinject.KindError, Every: 3, Times: 5},
			faultinject.Rule{Site: faultinject.SiteCacheFill, Kind: faultinject.KindError, Every: 4, Times: 5},
		)
		p := jobs.NewPoolWith(jobs.Options{Workers: 1, Faults: inj})
		defer p.Close()
		for i := 0; i < 12; i++ {
			// Serialized distinct jobs; failures are expected and ignored.
			p.Submit(context.Background(), jobs.Job{Workload: "VectorAdd", PhysRegs: 512 + 16*i})
		}
		counts := map[string]uint64{}
		for _, site := range faultinject.Sites() {
			counts[site] = inj.Fired(site)
		}
		return counts
	}
	a, b := run(), run()
	for site, n := range a {
		if b[site] != n {
			t.Errorf("site %s: %d faults in run A, %d in run B", site, n, b[site])
		}
	}
	if a[faultinject.SitePoolTask] == 0 {
		t.Error("pool.task never fired; determinism test proved nothing")
	}
}
