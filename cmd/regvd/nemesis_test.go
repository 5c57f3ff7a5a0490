package main

// The nemesis suite: a Jepsen-style fault schedule driven against real
// regvd binaries — three shards shipping to a warm-standby hub behind
// a router, all armed with -nemesis and -scrub-every. The schedule
// SIGKILLs the shard owning a long job mid-batch, partitions the
// router away from a second shard (forcing an adoption the deposed —
// but still living — primary must be fenced out of), flips a bit in a
// third's at-rest result file for the scrubber to heal, and SIGSTOPs
// the remaining shard through a probe window. Afterward every job the
// cluster ever acked must complete through the router byte-identical
// to a never-faulted control, and the ownership ack headers must show
// at most one writer per (keyspace, epoch). `make nemesis` runs
// exactly this file under -race; plain `go test` runs it too (skipped
// under -short).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"regvirt/internal/cluster"
	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
)

// ackRec is one ownership ack observed on a routed submit: the
// keyspace the job hashed to, the epoch the router believed current,
// and the backend that actually served the write.
type ackRec struct {
	keyspace string
	epoch    string
	servedBy string
}

// submitObserved submits through the router's raw HTTP surface so the
// ownership ack headers are visible (the client helper swallows them),
// and records the ack when one is stamped. Returns the HTTP status.
func submitObserved(t *testing.T, base string, j jobs.Job, acks *[]ackRec) int {
	t.Helper()
	body, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit %s: %v", j.Key(), err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if ks := resp.Header.Get(cluster.KeyspaceHeader); ks != "" {
		*acks = append(*acks, ackRec{
			keyspace: ks,
			epoch:    resp.Header.Get(cluster.EpochHeader),
			servedBy: resp.Header.Get(cluster.ServedByHeader),
		})
	}
	return resp.StatusCode
}

// waitNemesis polls cond until it holds or the timeout expires.
func waitNemesis(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// shardNodeStatus fetches a shard's own GET /v1/cluster view. A fresh
// struct per call: fenced/epoch are omitempty, so decoding into a
// reused struct would let stale values survive their omission.
func shardNodeStatus(t *testing.T, base string) cluster.NodeStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var st cluster.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode node status: %v", err)
	}
	return st
}

// postPartition drives a -nemesis process's POST /v1/faults/partition.
func postPartition(t *testing.T, base, body string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/faults/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/faults/partition: %v", err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition update answered HTTP %d", resp.StatusCode)
	}
}

// routerShardRow returns one shard's row from the router's status.
func routerShardRow(t *testing.T, base, name string) cluster.RouterShardStatus {
	t.Helper()
	st := routerClusterStatus(t, base)
	for _, row := range st.Shards {
		if row.Name == name {
			return row
		}
	}
	return cluster.RouterShardStatus{}
}

// jobsOwnedBy sweeps the candidate space for n distinct jobs whose
// content addresses hash to the named keyspace.
func jobsOwnedBy(t *testing.T, ring *cluster.Ring, owner string, n int) []jobs.Job {
	t.Helper()
	var out []jobs.Job
	for r := 64; r <= 2048 && len(out) < n; r += 32 {
		cand := jobs.Job{Workload: "VectorAdd", PhysRegs: r, ConcCTAs: 2}
		if ring.Owner(cand.Key()) == owner {
			out = append(out, cand)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d/%d candidate jobs hash to keyspace %s", len(out), n, owner)
	}
	return out
}

func TestNemesis(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and faults daemon subprocesses; skipped under -short")
	}
	bin := buildRegvd(t)

	// Hub standby: every shard ships here; adoptions land here.
	hub := startRegvd(t, bin, "-data-dir", t.TempDir(), "-shard", "standby",
		"-checkpoint-every", "2000", "-j", "2")

	shardNames := []string{"s1", "s2", "s3"}
	procs := map[string]*regvdProc{}
	dirs := map[string]string{}
	var peerSpec []string
	for _, name := range shardNames {
		dirs[name] = t.TempDir()
		p := startRegvd(t, bin, "-data-dir", dirs[name], "-shard", name,
			"-standby", "standby", "-peers", "standby="+hub.base,
			"-checkpoint-every", "2000", "-j", "2",
			"-scrub-every", "300ms", "-nemesis",
			"-faults", "sim.mem.accept:latency:500:2", "-fault-seed", "7")
		procs[name] = p
		peerSpec = append(peerSpec, name+"="+p.base)
	}
	router := startRegvd(t, bin, "-cluster", "-nemesis", "-peers", strings.Join(peerSpec, ","))

	ring, err := cluster.NewRing(shardNames, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cast the schedule: the spin job's owner is the SIGKILL victim;
	// of the survivors (sorted, so the cast is deterministic), the
	// first is partitioned+fenced+bit-flipped, the second is paused.
	spin := jobs.Job{Kernel: recoverySpin, GridCTAs: 2, ThreadsPerCTA: 64, ConcCTAs: 2}
	victim := ring.Owner(spin.Key())
	var rest []string
	for _, name := range shardNames {
		if name != victim {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	partTarget, pauseTarget := rest[0], rest[1]
	t.Logf("schedule: kill=%s partition+flip=%s pause=%s", victim, partTarget, pauseTarget)

	ptJobs := jobsOwnedBy(t, ring, partTarget, 4)
	vJobs := jobsOwnedBy(t, ring, victim, 1)
	pzJobs := jobsOwnedBy(t, ring, pauseTarget, 1)

	batch := []jobs.Job{
		spin,
		{Workload: "VectorAdd"},
		{Workload: "VectorAdd", PhysRegs: 512},
		{Workload: "VectorAdd", Mode: "hwonly"},
	}
	everything := append(append([]jobs.Job{}, batch...), vJobs[0])
	everything = append(everything, ptJobs...)
	everything = append(everything, pzJobs[0])
	control := controlResults(t, everything)

	var acks []ackRec
	var ids []string

	// --- Phase 0: the batch lands through the router at epoch 1. ---
	for _, j := range batch {
		if code := submitObserved(t, router.base, j, &acks); code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("batch submit %s answered HTTP %d", j.Key(), code)
		}
		ids = append(ids, j.Key())
	}

	// --- Phase 1: SIGKILL the spin owner mid-simulation, after it has
	// cut a checkpoint, so the hub re-runs from the shipped journal a
	// job its owner had half done. ---
	vp := procs[victim]
	waitNemesis(t, "victim running+checkpointed", 60*time.Second, func() bool {
		m := daemonMetrics(t, vp.base)
		return m.Running > 0 && m.CheckpointsWritten > 0
	})
	vp.kill(t, syscall.SIGKILL)

	waitNemesis(t, "router to adopt the killed shard", 60*time.Second, func() bool {
		row := routerShardRow(t, router.base, victim)
		return !row.Healthy && row.Epoch >= 2
	})
	// Fresh work for the dead keyspace acks at the bumped epoch.
	if code := submitObserved(t, router.base, vJobs[0], &acks); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("post-kill submit answered HTTP %d", code)
	}
	ids = append(ids, vJobs[0].Key())

	// --- Phase 2: partition the router away from partTarget. The shard
	// is alive and can still reach the hub — the classic asymmetric
	// split. The router must declare it down, adopt its keyspace at a
	// bumped epoch, and the deposed primary must fence itself out the
	// moment its shipping bounces off the adopter. ---
	ptHost := strings.TrimPrefix(procs[partTarget].base, "http://")
	postPartition(t, router.base, `{"block":["`+ptHost+`"]}`)

	waitNemesis(t, "router to adopt the partitioned shard", 60*time.Second, func() bool {
		row := routerShardRow(t, router.base, partTarget)
		return !row.Healthy && row.Epoch >= 2
	})
	// Through the router, the partitioned keyspace now lands on the
	// standby at the bumped epoch.
	if code := submitObserved(t, router.base, ptJobs[1], &acks); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("during-partition submit answered HTTP %d", code)
	}
	ids = append(ids, ptJobs[1].Key())

	// A split-brain client writes directly to the deposed primary. The
	// write is accepted (local durability holds) — but its ship frame
	// bounces off the adopter's fence, and the shard latches fenced.
	if body, err := json.Marshal(ptJobs[0]); err == nil {
		resp, err := http.Post(procs[partTarget].base+"/v1/jobs?async=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("direct submit to deposed shard: %v", err)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		// 202: accepted before the fence latched (the expected order).
		// 503: some earlier frame already latched it — equally fine.
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			ids = append(ids, ptJobs[0].Key())
		}
	}
	waitNemesis(t, "deposed shard to latch fenced", 60*time.Second, func() bool {
		return shardNodeStatus(t, procs[partTarget].base).Fenced
	})
	// Once latched, the deposed primary refuses every new write with a
	// typed, retryable refusal — no second writer in the old epoch.
	body, _ := json.Marshal(ptJobs[0])
	resp, err := http.Post(procs[partTarget].base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("probe of fenced shard: %v", err)
	}
	probeBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced shard answered HTTP %d, want 503; body %s", resp.StatusCode, probeBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("fenced 503 is missing Retry-After")
	}
	if !strings.Contains(string(probeBody), "fenced") {
		t.Errorf("fenced 503 body %q does not name the fence", probeBody)
	}

	// --- Phase 3: heal the partition. The router's probe sees a shard
	// reporting a stale epoch, grants a fresh higher one, and the shard
	// rejoins — resyncing its journal to the hub by snapshot. ---
	postPartition(t, router.base, `{"clear":true}`)
	waitNemesis(t, "rejoined shard to be granted a fresh epoch", 60*time.Second, func() bool {
		row := routerShardRow(t, router.base, partTarget)
		return row.Healthy && row.Epoch >= 3
	})
	waitNemesis(t, "rejoined shard to clear its fence", 60*time.Second, func() bool {
		st := shardNodeStatus(t, procs[partTarget].base)
		return !st.Fenced && st.Epoch >= 3
	})
	// New work for the keyspace acks at the granted epoch, served by
	// the rightful owner again.
	if code := submitObserved(t, router.base, ptJobs[2], &acks); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("post-heal submit answered HTTP %d", code)
	}
	ids = append(ids, ptJobs[2].Key())

	// --- Phase 4: SIGSTOP the remaining shard through a probe window,
	// then resume. Short enough that the router usually rides it out;
	// if it does declare death, adoption+regrant must still converge —
	// either way the cluster serves the keyspace afterward. ---
	pz := procs[pauseTarget]
	if err := faultinject.PauseProcess(pz.cmd.Process.Pid); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := faultinject.ResumeProcess(pz.cmd.Process.Pid); err != nil {
		t.Fatal(err)
	}
	waitNemesis(t, "paused shard to be healthy again", 60*time.Second, func() bool {
		return routerShardRow(t, router.base, pauseTarget).Healthy
	})
	if code := submitObserved(t, router.base, pzJobs[0], &acks); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("post-pause submit answered HTTP %d", code)
	}
	ids = append(ids, pzJobs[0].Key())

	// --- Phase 5: flip one payload bit of an at-rest result file on the
	// rejoined shard. The 300ms scrubber must detect the checksum break
	// and self-heal it (peer refetch or deterministic re-simulation —
	// the content address is the oracle), counting exactly as many
	// repairs as corruptions. ---
	scrubJob := ptJobs[3]
	sc := client.New(procs[partTarget].base)
	if _, err := sc.Submit(context.Background(), scrubJob); err != nil {
		t.Fatalf("scrub seed job: %v", err)
	}
	ids = append(ids, scrubJob.Key())
	resultPath := filepath.Join(dirs[partTarget], "results", scrubJob.Key()+".json")
	waitNemesis(t, "scrub seed result on disk", 30*time.Second, func() bool {
		_, err := os.Stat(resultPath)
		return err == nil
	})
	m0 := daemonMetrics(t, procs[partTarget].base)
	sealed, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(sealed, '\n')
	if nl < 0 || nl+2 >= len(sealed) {
		t.Fatalf("result file %s has no envelope header to corrupt", resultPath)
	}
	// Bit 3 of the payload's second byte: inside the checksummed body,
	// clear of the header and of the trailing spec section, so the
	// spec still salvages and both repair rungs (peer refetch and
	// re-simulation) stay open.
	if err := faultinject.FlipBit(resultPath, uint64(nl+2)*8+3); err != nil {
		t.Fatal(err)
	}
	waitNemesis(t, "scrubber to heal the flipped bit", 60*time.Second, func() bool {
		m := daemonMetrics(t, procs[partTarget].base)
		return m.ScrubRepaired > m0.ScrubRepaired
	})
	m1 := daemonMetrics(t, procs[partTarget].base)
	corrupt, repaired := m1.ScrubCorrupt-m0.ScrubCorrupt, m1.ScrubRepaired-m0.ScrubRepaired
	if corrupt == 0 || repaired != corrupt {
		t.Errorf("scrub deltas corrupt=%d repaired=%d, want equal and nonzero", corrupt, repaired)
	}
	st, err := sc.Status(context.Background(), scrubJob.Key())
	if err != nil || st.State != "done" || st.Result == nil {
		t.Fatalf("healed result unreadable: state=%v err=%v", st.State, err)
	}
	if !bytes.Equal(st.Result.JSON(), control[scrubJob.Key()]) {
		t.Error("healed result differs from never-faulted control")
	}

	// --- The ledger: every job the cluster ever acked completes through
	// the router, byte-identical to the never-faulted control. ---
	assertRecovered(t, router.base, ids, control)

	// One shard stayed dead; the cluster is degraded, not down.
	hresp, err := http.Get(router.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hbody), "degraded") {
		t.Errorf("/healthz: status %d body %q, want 200 degraded", hresp.StatusCode, hbody)
	}

	// --- The invariant: at most one writer ever acked per (keyspace,
	// epoch). Epochs may change hands — the same epoch may not. ---
	writers := map[string]map[string]bool{}
	epochsSeen := map[string]map[string]bool{}
	for _, a := range acks {
		key := a.keyspace + "@" + a.epoch
		if writers[key] == nil {
			writers[key] = map[string]bool{}
		}
		writers[key][a.servedBy] = true
		if epochsSeen[a.keyspace] == nil {
			epochsSeen[a.keyspace] = map[string]bool{}
		}
		epochsSeen[a.keyspace][a.epoch] = true
	}
	for key, set := range writers {
		if len(set) > 1 {
			var names []string
			for n := range set {
				names = append(names, n)
			}
			sort.Strings(names)
			t.Errorf("split brain: %s acked by %d writers %v", key, len(set), names)
		}
	}
	if len(epochsSeen[partTarget]) < 2 {
		t.Errorf("fencing never moved keyspace %s off its first epoch: acks %+v", partTarget, acks)
	}

	for _, name := range shardNames {
		if name != victim {
			procs[name].kill(t, syscall.SIGTERM)
		}
	}
	hub.kill(t, syscall.SIGTERM)
	router.kill(t, syscall.SIGTERM)
}
