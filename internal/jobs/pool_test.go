package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"regvirt/internal/kernelgen"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// TestDeterministicDedup submits one job N times in parallel and
// requires byte-identical results from exactly one underlying
// simulation: dedup counter == N-1, executed == 1.
func TestDeterministicDedup(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	const n = 12
	job := Job{Workload: "VectorAdd", Mode: "compiler", PhysRegs: 512, PowerGating: true}

	// Hold the only worker hostage so the first submission's flight
	// cannot complete until every other submission has joined it —
	// the dedup count is then deterministic, not a race against a
	// fast simulation.
	gate := make(chan struct{})
	busy := make(chan struct{})
	go p.Exec(context.Background(), func() error {
		close(busy)
		<-gate
		return nil
	})
	<-busy

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		outputs [][]byte
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Submit(context.Background(), job)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			mu.Lock()
			outputs = append(outputs, res.JSON())
			mu.Unlock()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.results.Stats().Dedups < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d submissions joined the flight after 10s", p.results.Stats().Dedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if len(outputs) != n {
		t.Fatalf("%d results, want %d", len(outputs), n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(outputs[0], outputs[i]) {
			t.Fatalf("result %d differs from result 0:\n%s\nvs\n%s", i, outputs[i], outputs[0])
		}
	}
	m := p.Metrics()
	if m.Executed != 1 {
		t.Errorf("executed = %d, want exactly 1 simulation", m.Executed)
	}
	if m.Deduped != n-1 {
		t.Errorf("deduped = %d, want %d", m.Deduped, n-1)
	}
	if m.Submitted != n || m.Completed != n || m.Failed != 0 {
		t.Errorf("submitted/completed/failed = %d/%d/%d, want %d/%d/0",
			m.Submitted, m.Completed, m.Failed, n, n)
	}
}

// TestMixedConfigStress runs distinct configurations concurrently
// (twice each) and checks the counter arithmetic plus one result
// against a direct sim.Run.
func TestMixedConfigStress(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	jobs := []Job{
		{Workload: "VectorAdd", Mode: "baseline"},
		{Workload: "VectorAdd", Mode: "compiler", PhysRegs: 512},
		{Workload: "VectorAdd", Mode: "hwonly"},
		{Workload: "MatrixMul", Mode: "compiler"},
		{Workload: "MatrixMul", Mode: "compiler", PowerGating: true, WakeupLatency: 3},
		{Workload: "Reduction", Mode: "compiler", FlagCacheEntries: -1},
	}
	const repeats = 2
	var wg sync.WaitGroup
	results := make([]*Result, len(jobs)*repeats)
	for rep := 0; rep < repeats; rep++ {
		for i, job := range jobs {
			wg.Add(1)
			go func(slot int, job Job) {
				defer wg.Done()
				res, err := p.Submit(context.Background(), job)
				if err != nil {
					t.Errorf("Submit %+v: %v", job, err)
					return
				}
				results[slot] = res
			}(rep*len(jobs)+i, job)
		}
	}
	wg.Wait()

	// Repeated submissions must agree byte for byte.
	for i := range jobs {
		a, b := results[i], results[len(jobs)+i]
		if a == nil || b == nil {
			continue // already reported
		}
		if !bytes.Equal(a.JSON(), b.JSON()) {
			t.Errorf("job %d: repeat differs", i)
		}
	}

	m := p.Metrics()
	total := uint64(len(jobs) * repeats)
	if m.Submitted != total || m.Completed+m.Failed != total {
		t.Errorf("submitted=%d completed=%d failed=%d, want %d total", m.Submitted, m.Completed, m.Failed, total)
	}
	if m.Executed != uint64(len(jobs)) {
		t.Errorf("executed = %d, want %d distinct simulations", m.Executed, len(jobs))
	}
	if m.Executed+m.Deduped+m.CacheHits != total {
		t.Errorf("executed+deduped+hits = %d+%d+%d, want %d",
			m.Executed, m.Deduped, m.CacheHits, total)
	}

	// Cross-check the GPU-shrink result against a direct simulation.
	w, err := workloads.ByName("VectorAdd")
	if err != nil {
		t.Fatal(err)
	}
	k, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(sim.Config{Mode: rename.ModeCompiler, PhysRegs: 512, WakeupLatency: 1}, w.Spec(k))
	if err != nil {
		t.Fatal(err)
	}
	got := results[1]
	if got == nil {
		t.Fatal("missing shrink result")
	}
	if got.Cycles != direct.Cycles {
		t.Errorf("pool cycles %d != direct sim.Run cycles %d", got.Cycles, direct.Cycles)
	}
	if got.StoresDigest != DigestStores(direct.Stores) {
		t.Error("pool stores digest differs from direct sim.Run")
	}
}

// TestDeadline: an absurdly short deadline fails the job without
// wedging the pool — a follow-up job on the same pool still completes.
func TestDeadline(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	_, err := p.Submit(context.Background(), Job{Workload: "MUM", TimeoutMS: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	m := p.Metrics()
	if m.Failed != 1 {
		t.Errorf("failed = %d, want 1", m.Failed)
	}
	// The pool must still serve jobs afterwards.
	res, err := p.Submit(context.Background(), Job{Workload: "VectorAdd"})
	if err != nil {
		t.Fatalf("pool wedged after deadline failure: %v", err)
	}
	if res.Cycles == 0 {
		t.Error("follow-up job returned empty result")
	}
	// The failed flight must not have been cached.
	if _, ok := p.results.Get(Job{Workload: "MUM", TimeoutMS: 1}.Key()); ok {
		t.Error("cancelled job left a cached result")
	}
}

// TestExecuteMatchesPool: the pool-free Execute path (regvsim -json)
// and the pool produce identical encodings.
func TestExecuteMatchesPool(t *testing.T) {
	job := Job{Workload: "BackProp", Mode: "compiler", PhysRegs: 512}
	direct, err := Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	defer p.Close()
	pooled, err := p.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.JSON(), pooled.JSON()) {
		t.Errorf("Execute and pool Submit disagree:\n%s\nvs\n%s", direct.JSON(), pooled.JSON())
	}
}

// TestJobKeyNormalization: spelling a default explicitly addresses the
// same cached result, and content fields change the key while
// transport fields don't.
func TestJobKeyNormalization(t *testing.T) {
	base := Job{Workload: "VectorAdd"}
	explicit := Job{Workload: "VectorAdd", Mode: "compiler", PhysRegs: 1024, WakeupLatency: 1, TableBytes: 1024, FlagCacheEntries: 10}
	if base.Key() != explicit.Key() {
		t.Error("explicit defaults changed the key")
	}
	withTimeout := Job{Workload: "VectorAdd", TimeoutMS: 5000, Async: true}
	if base.Key() != withTimeout.Key() {
		t.Error("timeout/async changed the key")
	}
	shrink := Job{Workload: "VectorAdd", PhysRegs: 512}
	if base.Key() == shrink.Key() {
		t.Error("physregs did not change the key")
	}
	gpu := Job{Workload: "VectorAdd", WholeGPU: true}
	if base.Key() == gpu.Key() {
		t.Error("whole-GPU did not change the key")
	}
}

// TestDeviceFlagCacheOffKey: a whole-device job with the flag cache
// disabled is keyed apart from the key such jobs had while the device
// ran them with the default cache, so a result stored then is never
// served for them. Every other job keeps its key.
func TestDeviceFlagCacheOffKey(t *testing.T) {
	unsalted := func(j Job) string {
		b, err := json.Marshal(j.normalized())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:16])
	}
	for _, j := range []Job{
		{Workload: "VectorAdd", WholeGPU: true, FlagCacheEntries: -1},
		{Workload: "MatrixMul", Mode: "hwonly", WholeGPU: true, FlagCacheEntries: -3},
	} {
		if j.Key() == unsalted(j) {
			t.Errorf("%+v keeps the key it had when run with the default cache", j)
		}
	}
	for _, j := range []Job{
		{Workload: "VectorAdd", FlagCacheEntries: -1},
		{Workload: "VectorAdd", WholeGPU: true},
		{Workload: "VectorAdd", WholeGPU: true, FlagCacheEntries: 4},
	} {
		if j.Key() != unsalted(j) {
			t.Errorf("%+v changed its key", j)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Job{
		{},
		{Workload: "VectorAdd", Kernel: "x"},
		{Workload: "NoSuchWorkload"},
		{Workload: "VectorAdd", Mode: "bogus"},
		{Workload: "VectorAdd", PhysRegs: 100},
		{Workload: "VectorAdd", TimeoutMS: -1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d accepted: %+v", i, j)
		}
	}
	if err := (Job{Workload: "VectorAdd"}).Validate(); err != nil {
		t.Errorf("good job rejected: %v", err)
	}
	// The instruction cap counts instruction lines only: a kernel at
	// the cap passes whatever its labels and comments, one more fails.
	kernel := func(n int) Job {
		return Job{Kernel: ".kernel k\n.reg 2\ntop: # entry\n" + strings.Repeat("    nop\n", n-1) + "    exit\n"}
	}
	if err := kernel(MaxKernelInstrs).Validate(); err != nil {
		t.Errorf("kernel at the %d-instruction cap rejected: %v", MaxKernelInstrs, err)
	}
	if err := kernel(MaxKernelInstrs + 1).Validate(); err == nil {
		t.Errorf("kernel of %d instructions accepted", MaxKernelInstrs+1)
	}
	// The register file is bounded too.
	if err := (Job{Workload: "VectorAdd", PhysRegs: sim.MaxPhysRegs}).Validate(); err != nil {
		t.Errorf("physregs at the %d bound rejected: %v", sim.MaxPhysRegs, err)
	}
	if err := (Job{Workload: "VectorAdd", PhysRegs: sim.MaxPhysRegs + 16}).Validate(); err == nil {
		t.Errorf("physregs %d accepted", sim.MaxPhysRegs+16)
	}
}

// TestInlineKernelJob runs a job specified as inline assembly.
func TestInlineKernelJob(t *testing.T) {
	src := `
.kernel inline
.reg 4
    s2r  r0, %tid.x
    shl  r1, r0, 2
    imul r2, r0, 3
    iadd r3, r1, c[0]
    st.global [r3+0], r2
    exit
`
	p := NewPool(2)
	defer p.Close()
	res, err := p.Submit(context.Background(), Job{Kernel: src, GridCTAs: 8, ThreadsPerCTA: 64, ConcCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "inline" || res.Cycles == 0 || res.StoresDigest == "" {
		t.Errorf("unexpected inline result: %+v", res)
	}
}

// TestPoolKeepsNoKernelText: a cached result does not keep its job's
// kernel source alive. Each job's source is padded with a 16 KiB
// comment and dropped once submitted, so a result whose kernel name is
// a substring of the source pins 16 KiB or more a job, and the live
// heap, read after a collection, must grow by at most heapPerJob a job.
func TestPoolKeepsNoKernelText(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n, heapPerJob = 100, 4 << 10
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p := NewPool(2)
	defer p.Close()
	submit := func(base int64, n int) {
		for i := 0; i < n; i++ {
			kseed := base | int64(i)
			params := kernelgen.Params{Regs: 8 + int(kseed%8), MaxItems: 10, MaxDepth: 2}
			src := "# " + strings.Repeat("x", 16<<10) + "\n" + kernelgen.Generate(kseed, params).String()
			if _, err := p.Submit(ctx, Job{Kernel: src}); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // and what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	submit(26<<20, 4) // one-time set-up, not counted
	before := liveHeap()
	submit(27<<20, n)
	perJob := (int64(liveHeap()) - int64(before)) / n
	if perJob > heapPerJob {
		t.Errorf("live heap grew %d bytes a job over %d jobs, want at most %d", perJob, n, heapPerJob)
	} else {
		t.Logf("live heap grew %d bytes a job over %d jobs", perJob, n)
	}
}

// TestPoolKeepsNoKernels: a pool keeps each job's result, not its
// compiled kernel. Distinct generated kernels at the cold benchmark's
// parameters and backend rotation run through a pool without a store,
// and the live heap, read after a collection, grows by at most
// heapPerJob a job. A cached result costs under 1 KB; a compiled kernel
// of this size costs 8 to 9 KB, so a pool that keeps kernels fails.
func TestPoolKeepsNoKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n, heapPerJob = 400, 4 << 10
	modes := []struct {
		mode     string
		physregs int
	}{{"compiler", 512}, {"regcache", 512}, {"smemspill", 512}, {"baseline", 1024}, {"hwonly", 1024}}
	coldJobs := func(base int64, n int) []Job {
		js := make([]Job, n)
		for i := range js {
			kseed := base | int64(i)
			params := kernelgen.Params{Regs: 8 + int(kseed%8), MaxItems: 10, MaxDepth: 2}
			m := modes[i%len(modes)]
			js[i] = Job{Kernel: kernelgen.Generate(kseed, params).String(), Mode: m.mode, PhysRegs: m.physregs}
		}
		return js
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // and what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p := NewPool(2)
	defer p.Close()
	submit := func(js []Job) {
		for _, j := range js {
			if _, err := p.Submit(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm-up jobs from another seed range first, so one-time set-up
	// is not counted against the measured jobs.
	submit(coldJobs(24<<20, 2*len(modes)))
	measured := coldJobs(25<<20, n)
	before := liveHeap()
	submit(measured)
	after := liveHeap()
	runtime.KeepAlive(measured) // "before" counted the sources; so must "after"
	perJob := (int64(after) - int64(before)) / n
	if perJob > heapPerJob {
		t.Errorf("live heap grew %d bytes a job over %d jobs, want at most %d", perJob, n, heapPerJob)
	} else {
		t.Logf("live heap grew %d bytes a job over %d jobs", perJob, n)
	}
}
