package main

// The cluster failover proof: four real regvd binaries — three shards
// shipping their journals to a warm-standby hub — behind a real regvd
// router. The shard that owns a long-running job is SIGKILLed mid-batch
// while fault-injection latency has its pipeline wedged mid-simulation,
// and every job the cluster accepted must still complete through the
// single router URL with results byte-identical to a process that was
// never killed. `make cluster` runs exactly this file under -race;
// plain `go test` runs it too (skipped under -short).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"regvirt/internal/cluster"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
)

// routerClusterStatus fetches the router's GET /v1/cluster view.
func routerClusterStatus(t *testing.T, base string) cluster.RouterStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var st cluster.RouterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /v1/cluster: %v", err)
	}
	return st
}

func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills daemon subprocesses; skipped under -short")
	}
	bin := buildRegvd(t)

	// Hub standby first: every shard ships its journal here, and the
	// router sends adoption orders here when a shard dies.
	hub := startRegvd(t, bin, "-data-dir", t.TempDir(), "-shard", "standby",
		"-checkpoint-every", "2000", "-j", "2")

	// Three shards, each under injected latency faults so the kill lands
	// mid-simulation at an armed site. Latency-only faults do not change
	// result bytes, so the in-process control stays the reference.
	shardNames := []string{"s1", "s2", "s3"}
	procs := map[string]*regvdProc{}
	var peerSpec []string
	for _, name := range shardNames {
		p := startRegvd(t, bin, "-data-dir", t.TempDir(), "-shard", name,
			"-standby", "standby", "-peers", "standby="+hub.base,
			"-checkpoint-every", "2000", "-j", "2",
			"-faults", "sim.mem.accept:latency:500:2", "-fault-seed", "7")
		procs[name] = p
		peerSpec = append(peerSpec, name+"="+p.base)
	}
	router := startRegvd(t, bin, "-cluster", "-peers", strings.Join(peerSpec, ","))

	// The same ring the router builds, so the test knows which shard
	// owns the long job — that shard is the SIGKILL victim.
	ring, err := cluster.NewRing(shardNames, 0)
	if err != nil {
		t.Fatal(err)
	}

	spin := jobs.Job{Kernel: recoverySpin, GridCTAs: 2, ThreadsPerCTA: 64, ConcCTAs: 2}
	quick := []jobs.Job{
		{Workload: "VectorAdd"},
		{Workload: "VectorAdd", PhysRegs: 512},
		{Workload: "VectorAdd", Mode: "hwonly"},
	}
	batch := append([]jobs.Job{spin}, quick...)
	control := controlResults(t, batch)

	victim := ring.Owner(spin.Key())
	t.Logf("spin job %s owned by shard %s", spin.Key(), victim)

	c := client.New(router.base)
	ctx := context.Background()
	var ids []string
	for _, j := range batch {
		id, err := c.SubmitAsync(ctx, j)
		if err != nil {
			t.Fatalf("submit through router: %v", err)
		}
		ids = append(ids, id)
	}

	// Pull the plug only after the owning shard is mid-simulation and
	// has cut at least one checkpoint, so the kill lands mid-run and
	// the hub must re-run the job from the shipped journal alone.
	vp := procs[victim]
	deadline := time.Now().Add(60 * time.Second)
	for {
		m := daemonMetrics(t, vp.base)
		if m.Running > 0 && m.CheckpointsWritten > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s never reached running+checkpointed; metrics %+v; logs:\n%s",
				victim, m, vp.logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	vp.kill(t, syscall.SIGKILL)

	// Every accepted job must complete through the router, byte-identical
	// to the never-killed control — including the ones marooned on the
	// dead shard, which the hub re-runs from the shipped journal.
	assertRecovered(t, router.base, ids, control)

	// The router saw the failure and rerouted around it.
	st := routerClusterStatus(t, router.base)
	var vrow *cluster.RouterShardStatus
	for i := range st.Shards {
		if st.Shards[i].Name == victim {
			vrow = &st.Shards[i]
		}
	}
	if vrow == nil {
		t.Fatalf("victim %s missing from router status %+v", victim, st)
	}
	if vrow.Healthy {
		t.Errorf("router still reports killed shard %s healthy", victim)
	}
	if vrow.Replayed == 0 {
		t.Errorf("router reports no jobs replayed for dead shard %s: %+v", victim, st)
	}
	if st.Failovers == 0 {
		t.Errorf("router reports zero failovers after a shard died: %+v", st)
	}

	// One dead shard degrades — but does not fail — the cluster.
	resp, err := http.Get(router.base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Errorf("/healthz with one shard down: status %d body %q, want 200 degraded",
			resp.StatusCode, body)
	}

	// New work whose keyspace belongs to the dead shard still lands:
	// the router fails it over and the result matches a clean run.
	fresh := jobs.Job{}
	found := false
	for r := 64; r <= 2048; r += 64 {
		cand := jobs.Job{Workload: "VectorAdd", PhysRegs: r, ConcCTAs: 2}
		if ring.Owner(cand.Key()) == victim {
			fresh, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate job hashed to the dead shard's keyspace")
	}
	want, err := jobs.Execute(ctx, fresh)
	if err != nil {
		t.Fatalf("control run for fresh job: %v", err)
	}
	got, err := c.Submit(ctx, fresh)
	if err != nil {
		t.Fatalf("submit to dead keyspace through router: %v", err)
	}
	if gj, wj := string(got.JSON()), string(want.JSON()); gj != wj {
		t.Errorf("failed-over fresh job differs from control:\n got %s\nwant %s", gj, wj)
	}

	for _, name := range shardNames {
		if name != victim {
			procs[name].kill(t, syscall.SIGTERM)
		}
	}
	hub.kill(t, syscall.SIGTERM)
	router.kill(t, syscall.SIGTERM)
}
