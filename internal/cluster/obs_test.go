package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"regvirt/internal/jobs"
	"regvirt/internal/obs"
)

// TestClusterTraceStitch is the cross-process tracing proof: one
// submit through the router produces ONE trace whose spans come from
// two different tracers — the router's (router.submit, router.forward)
// and the owning shard's (http.submit, jobs.submit, sim.run) — and
// GET /v1/trace/{id} on the router returns them stitched into a
// single timeline.
func TestClusterTraceStitch(t *testing.T) {
	a := newTestShard(t, "shard-a")
	b := newTestShard(t, "shard-b")
	a.serve("", "")
	b.serve("", "")
	_, routerURL := startRouter(t, []ShardInfo{{Name: "shard-a", URL: a.url}, {Name: "shard-b", URL: b.url}})

	body, _ := json.Marshal(jobs.Job{Workload: "VectorAdd", PhysRegs: 512, Tenant: "team-stitch"})
	resp, err := http.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("router response carries no %s header", obs.TraceHeader)
	}

	tresp, err := http.Get(routerURL + "/v1/trace/" + sc.TraceID)
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
	services := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Errorf("span %s in trace %s, want %s", sp.Name, sp.TraceID, sc.TraceID)
		}
		byName[sp.Name] = sp
		services[sp.Service] = true
	}
	// Router-side and shard-side spans, one trace.
	for _, want := range []string{"router.submit", "router.forward", "http.submit", "jobs.submit", "sim.run"} {
		if _, ok := byName[want]; !ok {
			names := make([]string, 0, len(tr.Spans))
			for _, sp := range tr.Spans {
				names = append(names, sp.Name)
			}
			t.Errorf("stitched trace missing span %q (got %v)", want, names)
		}
	}
	if !services["router"] {
		t.Error("no router-service spans in the stitched trace")
	}
	if !services["shard-a"] && !services["shard-b"] {
		t.Error("no shard-service spans in the stitched trace")
	}
	// The shard's root is parented under the router's forward hop: the
	// context crossed the process boundary through the trace header.
	fwd, hs := byName["router.forward"], byName["http.submit"]
	if hs.Parent != fwd.SpanID {
		t.Errorf("http.submit parented to %q, want the router.forward span %q", hs.Parent, fwd.SpanID)
	}

	// The stitched trace exports as one Chrome timeline too.
	cresp, err := http.Get(routerURL + "/v1/trace/" + sc.TraceID + "?format=chrome")
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
}

// TestRouterPromAggregation: the router's /metrics?format=prom renders
// its own families plus every reachable shard's, shard-labelled, and
// the combined exposition still passes the promtool-style lint (one
// grouped family per metric name across all shards).
func TestRouterPromAggregation(t *testing.T) {
	a := newTestShard(t, "shard-a")
	b := newTestShard(t, "shard-b")
	a.serve("", "")
	b.serve("", "")
	_, routerURL := startRouter(t, []ShardInfo{{Name: "shard-a", URL: a.url}, {Name: "shard-b", URL: b.url}})

	// A few distinct jobs so at least one shard has real traffic.
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(jobs.Job{Workload: "VectorAdd", PhysRegs: 512 + 32*i, Tenant: "team-prom"})
		resp, err := http.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(routerURL + "/metrics?format=prom")
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
	data := buf.String()
	if err := obs.LintProm(buf.Bytes()); err != nil {
		t.Fatalf("aggregated exposition fails lint: %v\n%s", err, data)
	}
	for _, want := range []string{
		"regvd_router_submitted_total 4",
		`regvd_router_shard_up{shard="shard-a"} 1`,
		`regvd_router_shard_up{shard="shard-b"} 1`,
		`regvd_jobs_submitted_total{shard="shard-a"}`,
		`regvd_jobs_submitted_total{shard="shard-b"}`,
		`regvd_router_span_duration_seconds_bucket{span="router.submit",le="+Inf"}`,
		`regvd_submit_latency_seconds_bucket{shard="shard-a",le="+Inf"}`,
		`regvd_submit_latency_seconds_bucket{shard="shard-b",le="+Inf"}`,
	} {
		if !strings.Contains(data, want) {
			t.Errorf("aggregated exposition missing %q", want)
		}
	}
	// Latency has one aggregatable mechanism; the quantile gauges are gone.
	if strings.Contains(data, "regvd_latency_p50_seconds") {
		t.Error("exposition still carries the non-aggregatable regvd_latency_p50_seconds gauge")
	}
	// Both shards' submitted counters sum to everything the router
	// accepted (no router-cache hits here: every job was distinct).
	var sum int
	for _, shard := range []string{"shard-a", "shard-b"} {
		var v int
		series := fmt.Sprintf("regvd_jobs_submitted_total{shard=%q} ", shard)
		for _, line := range strings.Split(data, "\n") {
			if strings.HasPrefix(line, series) {
				fmt.Sscanf(strings.TrimPrefix(line, series), "%d", &v)
			}
		}
		sum += v
	}
	if sum != 4 {
		t.Errorf("shard-labelled submitted counters sum to %d, want 4", sum)
	}
}
