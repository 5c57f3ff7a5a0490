package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// spinKernel runs long enough that a shard death reliably lands while
// it is simulating (a few hundred ms at test worker counts).
const spinKernel = `
.kernel spin
.reg 8
    s2r  r0, %tid.x
    movi r4, 0
    movi r5, 0
body:
    iadd r5, r5, r0
    iadd r4, r4, 1
    isetp.lt p0, r4, 20000
@p0 bra body
    shl  r7, r0, 2
    st.global [r7+0], r5
    exit
`

// testShard is one in-process shard: real store, real standby store,
// real pool, served over a real TCP listener so the router and the
// shippers talk production HTTP.
type testShard struct {
	name string
	st   *store.Store
	sb   *store.StandbyStore
	pool *jobs.Pool
	ship *Shipper
	srv  *http.Server
	url  string
	ln   net.Listener
}

func newTestShard(t *testing.T, name string) *testShard {
	t.Helper()
	dir := t.TempDir()
	st, recovered, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := store.OpenStandby(filepath.Join(dir, "standby"))
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.NewPoolWith(jobs.Options{Workers: 2, Store: st, CheckpointEvery: 2000, Tracer: obs.NewTracer(name)})
	pool.Restore(recovered)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testShard{
		name: name, st: st, sb: sb, pool: pool,
		ln: ln, url: "http://" + ln.Addr().String(),
	}
	t.Cleanup(func() { ts.stop() })
	return ts
}

// serve wires the shard server (optionally shipping to standbyName at
// standbyURL) and starts accepting.
func (ts *testShard) serve(standbyName, standbyURL string) {
	if standbyURL != "" {
		ts.ship = NewShipper(ts.name, standbyName, standbyURL, ts.st)
		ts.ship.Start()
	}
	ss := NewShardServer(ts.name, ts.pool, nil, ts.sb, ts.ship)
	ts.srv = &http.Server{Handler: ss.Handler(jobs.NewServer(ts.pool).Handler())}
	go ts.srv.Serve(ts.ln)
}

// kill simulates the process dying: shipping stops cold and the
// listener drops — no drain, no flush. Store and pool are left to the
// cleanup (a real SIGKILL's in-flight work just stops mattering; here
// it finishes into a store nobody asks again).
func (ts *testShard) kill() {
	if ts.ship != nil {
		ts.ship.Close()
		ts.ship = nil
	}
	if ts.srv != nil {
		ts.srv.Close()
		ts.srv = nil
	}
}

func (ts *testShard) stop() {
	ts.kill()
	ts.pool.Close()
	ts.sb.Close()
	ts.st.Close()
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func routerStatus(t *testing.T, routerURL string) RouterStatus {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var st RouterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode router status: %v", err)
	}
	return st
}

func startRouter(t *testing.T, shards []ShardInfo) (*Router, string) {
	t.Helper()
	// A fast prober and a short retry budget keep failover drills quick.
	r, err := newRouter(shards, RouterOptions{Tracer: obs.NewTracer("router")}, 50*time.Millisecond,
		client.RetryPolicy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return r, "http://" + ln.Addr().String()
}

// TestClusterFailoverInProcess is the failover proof at package level:
// two shards shipping journals to each other, a router in front, the
// shard owning a long-running job killed mid-simulation. Every
// accepted job must complete through the router with results
// byte-identical to never-killed in-process control runs.
func TestClusterFailoverInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation; skipped under -short")
	}
	s1 := newTestShard(t, "s1")
	s2 := newTestShard(t, "s2")
	s1.serve("s2", s2.url)
	s2.serve("s1", s1.url)
	shards := map[string]*testShard{"s1": s1, "s2": s2}

	_, routerURL := startRouter(t, []ShardInfo{{Name: "s1", URL: s1.url}, {Name: "s2", URL: s2.url}})
	c := client.New(routerURL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Let the prober see both shards (and learn their standby targets).
	waitFor(t, "both shards probed healthy", 10*time.Second, func() bool {
		st := routerStatus(t, routerURL)
		healthy := 0
		for _, row := range st.Shards {
			if row.Healthy && row.Standby != "" {
				healthy++
			}
		}
		return healthy >= 2
	})

	spin := jobs.Job{Kernel: spinKernel, GridCTAs: 2, ThreadsPerCTA: 64, ConcCTAs: 2}
	quick := []jobs.Job{
		{Workload: "VectorAdd"},
		{Workload: "VectorAdd", PhysRegs: 512},
		{Workload: "MatrixMul"},
	}
	control := map[string][]byte{}
	for _, j := range append([]jobs.Job{spin}, quick...) {
		res, err := jobs.Execute(context.Background(), j)
		if err != nil {
			t.Fatalf("control run: %v", err)
		}
		control[j.Key()] = res.JSON()
	}

	ring, err := NewRing([]string{"s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := shards[ring.Owner(spin.Key())]

	var ids []string
	for _, j := range append([]jobs.Job{spin}, quick...) {
		id, err := c.SubmitAsync(ctx, j)
		if err != nil {
			t.Fatalf("submit via router: %v", err)
		}
		ids = append(ids, id)
	}

	// Kill the spin job's owner while the simulation is running.
	waitFor(t, "victim simulating the spin job", 30*time.Second, func() bool {
		return victim.pool.Metrics().Running > 0
	})
	victim.kill()

	// Every accepted job must still complete through the router —
	// including the one whose owner just died mid-flight — and match the
	// never-killed control bytes.
	for i, id := range ids {
		res, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s after shard death: %v", id, err)
		}
		if !bytes.Equal(res.JSON(), control[id]) {
			t.Errorf("job %d (%s): failover result differs from control", i, id)
		}
	}

	// The router must have noticed the death and failed the keyspace
	// over to the standby that adopted the journal.
	st := routerStatus(t, routerURL)
	var victimRow *RouterShardStatus
	for i := range st.Shards {
		if st.Shards[i].Name == victim.name {
			victimRow = &st.Shards[i]
		}
	}
	if victimRow == nil {
		t.Fatalf("victim %s missing from router status %+v", victim.name, st)
	}
	if victimRow.Healthy {
		t.Errorf("router still reports dead shard %s healthy", victim.name)
	}
	if victimRow.Replayed == 0 {
		t.Errorf("no jobs adopted from dead shard %s: %+v", victim.name, st)
	}
	if st.Failovers == 0 {
		t.Errorf("router recorded no failovers: %+v", st)
	}

	// Degraded-mode health aggregation: one shard down, still serving.
	resp, err := http.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "degraded" {
		t.Errorf("healthz with one dead shard: HTTP %d %q (want 200 degraded)", resp.StatusCode, hz.Status)
	}

	// New submissions to the dead keyspace keep working (routed to the
	// survivor), and identical resubmissions dedup against the shipped
	// result instead of re-simulating.
	res, err := c.Submit(ctx, spin)
	if err != nil {
		t.Fatalf("resubmit to dead keyspace: %v", err)
	}
	if !bytes.Equal(res.JSON(), control[spin.Key()]) {
		t.Error("resubmission after failover differs from control")
	}
}

// TestRouterTenantScrubbing is the cross-shard version of the pool's
// TestTenantNotInJobKey: the router's shared result cache must never
// leak one tenant's response-copy stamp into another tenant's (or a
// tenantless) response, even when the cache entry was filled by a
// different tenant's submission routed through a different shard path.
func TestRouterTenantScrubbing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation; skipped under -short")
	}
	s1 := newTestShard(t, "s1")
	s2 := newTestShard(t, "s2")
	s1.serve("", "")
	s2.serve("", "")
	_, routerURL := startRouter(t, []ShardInfo{{Name: "s1", URL: s1.url}, {Name: "s2", URL: s2.url}})
	ctx := context.Background()

	job := jobs.Job{Workload: "VectorAdd"}
	alice := client.New(routerURL, client.WithTenant("alice"))
	bob := client.New(routerURL, client.WithTenant("bob"))
	anon := client.New(routerURL)

	resA, err := alice.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Tenant != "alice" {
		t.Fatalf("alice's response stamped %q, want alice", resA.Tenant)
	}
	resB, err := bob.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Tenant != "bob" {
		t.Fatalf("bob's response stamped %q (cache leaked another tenant's stamp?)", resB.Tenant)
	}
	resN, err := anon.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if resN.Tenant != "" {
		t.Fatalf("tenantless response stamped %q, want empty", resN.Tenant)
	}

	// Apart from the per-response stamp, all three must be one shared,
	// byte-identical result — the dedup the content address promises.
	scrub := func(r *jobs.Result) []byte {
		cp := *r
		cp.Tenant = ""
		return (&cp).JSON()
	}
	if !bytes.Equal(scrub(resA), scrub(resB)) || !bytes.Equal(scrub(resA), scrub(resN)) {
		t.Error("identical jobs from different tenants returned different results")
	}

	// The later submissions must have been answered from a cache (the
	// router's or the shard's), not re-simulated: count executions
	// across both shards.
	executed := s1.pool.Metrics().Executed + s2.pool.Metrics().Executed
	if executed > 1 {
		t.Errorf("job executed %d times across the cluster, want 1 (dedup failed)", executed)
	}
	// And the router itself served at least one of them from its own
	// tenant-scrubbed cache.
	if st := routerStatus(t, routerURL); st.CacheHits == 0 {
		t.Errorf("router cache never hit: %+v", st)
	}
}

// TestShardClusterStatusEndpoint sanity-checks the shard-side
// /v1/cluster report shape the router's probe relies on.
func TestShardClusterStatusEndpoint(t *testing.T) {
	s1 := newTestShard(t, "s1")
	s2 := newTestShard(t, "s2")
	s1.serve("s2", s2.url)
	s2.serve("", "")

	var st NodeStatus
	waitFor(t, "s1 ships_to report", 5*time.Second, func() bool {
		resp, err := http.Get(s1.url + "/v1/cluster")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return false
		}
		return st.ShipsTo != nil
	})
	if st.Role != "shard" || st.Shard != "s1" {
		t.Errorf("bad identity: %+v", st)
	}
	if st.ShipsTo.Name != "s2" || st.ShipsTo.URL != s2.url {
		t.Errorf("bad ships_to: %+v", st.ShipsTo)
	}

	// After a durable submission, the standby must hold the journal copy.
	c := client.New(s1.url)
	if _, err := c.Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "s2 standby copy of s1", 10*time.Second, func() bool {
		resp, err := http.Get(s2.url + "/v1/cluster")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var st2 NodeStatus
		if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
			return false
		}
		for _, sh := range st2.StandbyFor {
			if sh.Shard == "s1" && sh.LastSeq > 0 {
				return true
			}
		}
		return false
	})
}

// TestShardRejectsSelfShipment guards the wire layer against identity
// confusion: a shard must refuse shipments and adoptions naming itself.
func TestShardRejectsSelfShipment(t *testing.T) {
	s1 := newTestShard(t, "s1")
	s1.serve("", "")
	for _, req := range []struct{ path, contentType, body string }{
		{"/v1/cluster/ship?shard=s1", shipType, ""},
		{"/v1/cluster/adopt", "application/json", fmt.Sprintf(`{"shard":%q}`, "s1")},
	} {
		resp, err := http.Post(s1.url+req.path, req.contentType, bytes.NewReader([]byte(req.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s naming self: HTTP %d, want 400", req.path, resp.StatusCode)
		}
	}
}
