package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// obsJob is a tiny deterministic job the observability tests reuse.
func obsJob(tenant string) jobs.Job {
	return jobs.Job{Workload: "VectorAdd", PhysRegs: 512, Tenant: tenant}
}

// TestSubmitTrace: one synchronous submission through the HTTP server
// yields a single stitched trace — admission, queue wait and the
// simulation all under the http.submit root — retrievable from
// GET /v1/trace/{id} and exportable as a loadable Chrome trace.
func TestSubmitTrace(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{Workers: 2, Tracer: obs.NewTracer("jobsd")})
	defer p.Close()
	srv := httptest.NewServer(jobs.NewServer(p).Handler())
	defer srv.Close()

	body, _ := json.Marshal(obsJob("team-obs"))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("submit response carries no %s header", obs.TraceHeader)
	}

	tresp, err := http.Get(srv.URL + "/v1/trace/" + sc.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: HTTP %d", tresp.StatusCode)
	}
	var tr jobs.TraceResponse
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}

	byName := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Errorf("span %s in trace %s, want %s", sp.Name, sp.TraceID, sc.TraceID)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"http.submit", "jobs.submit", "jobs.admit", "queue.wait", "sim.run"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q (got %v)", want, spanNames(tr.Spans))
		}
	}
	if got := byName["jobs.submit"].Tenant; got != "team-obs" {
		t.Errorf("jobs.submit tenant = %q", got)
	}
	if byName["jobs.submit"].JobID == "" {
		t.Error("jobs.submit span has no job ID")
	}
	if got := byName["jobs.submit"].Attrs.Get("outcome"); got != "miss" {
		t.Errorf("first submit outcome = %q, want miss", got)
	}
	if byName["sim.run"].Parent == "" || byName["queue.wait"].Parent == "" {
		t.Error("worker spans must be parented into the trace")
	}

	// The Chrome export of the same trace is valid trace_event JSON.
	cresp, err := http.Get(srv.URL + "/v1/trace/" + sc.TraceID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cf struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&cf); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(cf.TraceEvents) < len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(cf.TraceEvents), len(tr.Spans))
	}

	// A second identical submission joins the cache and says so.
	resp2, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	sc2, ok := obs.ParseTraceHeader(resp2.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatal("second submit carries no trace header")
	}
	var hit bool
	for _, sp := range p.Tracer().Trace(sc2.TraceID) {
		if sp.Name == "jobs.submit" && sp.Attrs.Get("outcome") == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Error("second submit's jobs.submit span does not record a cache hit")
	}
}

func spanNames(spans []obs.SpanRecord) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestTraceHeaderPropagation: a caller-minted trace context is joined,
// not replaced — the recorded spans carry the caller's trace ID.
func TestTraceHeaderPropagation(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{Workers: 1, Tracer: obs.NewTracer("jobsd")})
	defer p.Close()
	srv := httptest.NewServer(jobs.NewServer(p).Handler())
	defer srv.Close()

	body, _ := json.Marshal(obsJob(""))
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "00000000000000000000000000deadbe/00000000000000ef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok || sc.TraceID != "00000000000000000000000000deadbe" {
		t.Fatalf("response trace = %+v, want the caller's trace ID", sc)
	}
	spans := p.Tracer().Trace("00000000000000000000000000deadbe")
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the caller's trace ID")
	}
	root := spans[0]
	if root.Name != "http.submit" || root.Parent != "00000000000000ef" {
		t.Fatalf("root span %s parented to %q, want the caller's span", root.Name, root.Parent)
	}
}

// TestAsyncRefusalReachesTrace: an async submit refused at admission
// leaves its error on the http.submit span, as a sync refusal does; the
// span is the request's only record.
func TestAsyncRefusalReachesTrace(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{
		Workers: 1,
		Tracer:  obs.NewTracer("jobsd"),
		Sched:   sched.Config{Strict: true, Tenants: map[string]sched.TenantConfig{"team-a": {Weight: 1}}},
	})
	defer p.Close()
	srv := httptest.NewServer(jobs.NewServer(p).Handler())
	defer srv.Close()

	job := obsJob("stranger")
	job.Async = true
	body, _ := json.Marshal(job)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("async submit from an unknown tenant: HTTP %d, want 403", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("refusal carries no %s header", obs.TraceHeader)
	}
	tresp, err := http.Get(srv.URL + "/v1/trace/" + sc.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tr jobs.TraceResponse
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace fetch (HTTP %d): %v", tresp.StatusCode, err)
	}
	want := (&sched.AdmissionError{Tenant: "stranger", Reason: "not in the configured tenant set"}).Error()
	for _, sp := range tr.Spans {
		if sp.Name == "http.submit" {
			if sp.Error != want {
				t.Errorf("http.submit error = %q, want %q", sp.Error, want)
			}
			return
		}
	}
	t.Fatalf("trace has no http.submit span (got %v)", spanNames(tr.Spans))
}

// TestSubmitSpanAndCacheAreTheRecord: a submit is timed by its
// jobs.submit span alone and its outcome is counted by the result cache
// alone. A traced pool serves a failure, an admission refusal, dedups,
// fills and hits; the span histogram holds one duration per submission
// and refusal, the snapshot's outcome counters are the cache's, and its
// latency quantiles are the histogram's.
func TestSubmitSpanAndCacheAreTheRecord(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{
		Workers: 1,
		Tracer:  obs.NewTracer("jobsd"),
		Faults:  faultinject.New(1, faultinject.Rule{Site: faultinject.SiteCacheFill, Kind: faultinject.KindError, Every: 1, Times: 1}),
		Sched:   sched.Config{Strict: true, Tenants: map[string]sched.TenantConfig{"team-a": {Weight: 1}}},
	})
	defer p.Close()
	ctx := context.Background()
	job := func(physregs int) jobs.Job {
		return jobs.Job{Workload: "VectorAdd", PhysRegs: physregs, Tenant: "team-a"}
	}

	// The first fill meets the injected error; a stranger is refused.
	if _, err := p.Submit(ctx, job(512)); err == nil {
		t.Fatal("first fill succeeded despite the injected error")
	}
	if _, err := p.Submit(ctx, obsJob("stranger")); err == nil {
		t.Fatal("strict pool admitted an unknown tenant")
	}

	// Hold the one worker so three identical submits share one fill.
	gate, held := make(chan struct{}), make(chan struct{})
	go p.Exec(ctx, func() error {
		close(held)
		<-gate
		return nil
	})
	<-held
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(ctx, job(544)); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); p.Metrics().ResultCache.Dedups < 2; {
		if time.Now().After(deadline) {
			t.Fatal("identical submits never joined the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	// The failed job refills, a new one fills, and it hits twice.
	for _, physregs := range []int{512, 576, 576, 576} {
		if _, err := p.Submit(ctx, job(physregs)); err != nil {
			t.Fatal(err)
		}
	}

	m := p.Metrics()
	c := m.ResultCache
	if m.Executed != c.Misses || m.Deduped != c.Dedups || m.CacheHits != c.Hits {
		t.Errorf("executed/deduped/cache_hits = %d/%d/%d, want the cache's misses/dedups/hits %d/%d/%d",
			m.Executed, m.Deduped, m.CacheHits, c.Misses, c.Dedups, c.Hits)
	}
	if m.Executed != 4 || m.Deduped != 2 || m.CacheHits != 2 || c.Failures != 1 {
		t.Errorf("executed/deduped/cache_hits/failures = %d/%d/%d/%d, want 4/2/2/1",
			m.Executed, m.Deduped, m.CacheHits, c.Failures)
	}
	if m.Submitted != 8 || m.Completed != 7 || m.Failed != 1 || m.QuotaRejected != 1 {
		t.Errorf("submitted/completed/failed/quota_rejected = %d/%d/%d/%d, want 8/7/1/1",
			m.Submitted, m.Completed, m.Failed, m.QuotaRejected)
	}
	if m.Submitted != m.Executed+m.Deduped+m.CacheHits {
		t.Errorf("submitted %d != executed + deduped + cache_hits %d", m.Submitted, m.Executed+m.Deduped+m.CacheHits)
	}

	h := m.SpanDurations["jobs.submit"]
	if h.Count != m.Submitted+m.QuotaRejected {
		t.Errorf("jobs.submit spans = %d, want submissions + refusals = %d", h.Count, m.Submitted+m.QuotaRejected)
	}
	p50, p99 := h.Quantile(0.5)*1000, h.Quantile(0.99)*1000
	if m.LatencyP50MS != p50 || m.LatencyP99MS != p99 || p50 <= 0 {
		t.Errorf("latency p50/p99 = %v/%v ms, want the jobs.submit histogram's %v/%v ms (non-zero)",
			m.LatencyP50MS, m.LatencyP99MS, p50, p99)
	}
}

// TestTraceEndpointWithoutTracer: tracing off means 404, not a crash.
func TestTraceEndpointWithoutTracer(t *testing.T) {
	p := jobs.NewPool(1)
	defer p.Close()
	srv := httptest.NewServer(jobs.NewServer(p).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/trace/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPromExposition: /metrics?format=prom passes the vendored
// promtool-style lint and carries the core families, including the
// span-duration histograms once traffic has flowed.
func TestPromExposition(t *testing.T) {
	p := jobs.NewPoolWith(jobs.Options{Workers: 2, Tracer: obs.NewTracer("jobsd")})
	defer p.Close()
	if _, err := p.Submit(context.Background(), obsJob("team-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), obsJob("team-b")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(jobs.NewServer(p).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := obs.LintProm(data); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, data)
	}
	for _, want := range []string{
		"regvd_jobs_submitted_total 2",
		`regvd_tenant_submitted_total{tenant="team-a"} 1`,
		`regvd_span_duration_seconds_bucket{span="sim.run",le="+Inf"}`,
		`regvd_span_duration_seconds_bucket{span="jobs.submit",le="+Inf"} 2`,
		`regvd_cache_evictions_total{cache="result"} 0`,
		"regvd_tenant_overflow_folds_total 0",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTenantOverflowFold: past 128 tenants the counter table folds new
// tenants into the explicit "~overflow" row instead of growing, the
// fold is counted, and no attribution is lost — per-tenant submitted
// counts still sum to the pool total.
func TestTenantOverflowFold(t *testing.T) {
	p := jobs.NewPool(2)
	defer p.Close()

	const tenants = 140
	for i := 0; i < tenants; i++ {
		if _, err := p.Submit(context.Background(), obsJob(fmt.Sprintf("t%03d", i))); err != nil {
			t.Fatal(err)
		}
	}

	m := p.Metrics()
	if m.TenantsTracked > 129 { // 128 real rows + "~overflow"
		t.Errorf("tenant table grew to %d rows", m.TenantsTracked)
	}
	if m.TenantsOverflowed == 0 {
		t.Error("tenants_overflowed = 0 after 140 tenants")
	}
	ov, ok := m.Tenants["~overflow"]
	if !ok {
		t.Fatal("no ~overflow row in the tenant breakdown")
	}
	if ov.Submitted == 0 {
		t.Error("~overflow row absorbed no submissions")
	}
	var sum uint64
	for _, ts := range m.Tenants {
		sum += ts.Submitted
	}
	if sum != m.Submitted {
		t.Errorf("per-tenant submitted sums to %d, pool total %d", sum, m.Submitted)
	}

	// The overflow row is a legal Prometheus label value too.
	var w obs.PromWriter
	jobs.WriteProm(&w, jobs.PromShard{M: m})
	if err := obs.LintProm(w.Bytes()); err != nil {
		t.Fatalf("overflowed exposition fails lint: %v", err)
	}
	if !strings.Contains(string(w.Bytes()), `tenant="~overflow"`) {
		t.Error("exposition has no ~overflow series")
	}
}
