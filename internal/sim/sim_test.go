package sim

import (
	"reflect"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

// saxpy: out[i] = a*x[i] + y[i], one element per thread.
const saxpySrc = `
.kernel saxpy
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    imad  r2, r1, c[0], r0
    shl   r3, r2, 2
    iadd  r4, r3, c[1]
    iadd  r5, r3, c[2]
    ld.global r6, [r4+0]
    ld.global r7, [r5+0]
    imul  r6, r6, c[3]
    iadd  r6, r6, r7
    iadd  r8, r3, c[4]
    st.global [r8+0], r6
    exit
`

// divergent: even lanes double, odd lanes negate-ish, then join and store.
const divergentSrc = `
.kernel divergent
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    imad  r2, r1, c[0], r0
    and   r3, r2, 1
    movi  r4, 7
    isetp.eq p0, r3, 0
@p0 bra even_bb
    imul  r5, r2, 3
    iadd  r5, r5, r4
    bra join
even_bb:
    shl   r5, r2, 1
    iadd  r5, r5, r4
join:
    shl   r6, r2, 2
    iadd  r6, r6, c[1]
    st.global [r6+0], r5
    exit
`

// loop: each thread sums K loaded values.
const loopSrc = `
.kernel loopsum
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    imad  r2, r1, c[0], r0
    shl   r3, r2, 2
    iadd  r3, r3, c[1]
    movi  r4, 0
    movi  r5, 0
body:
    ld.global r6, [r3+0]
    iadd  r5, r5, r6
    iadd  r3, r3, c[3]
    iadd  r4, r4, 1
    isetp.lt p0, r4, c[2]
@p0 bra body
    shl   r7, r2, 2
    iadd  r7, r7, c[4]
    st.global [r7+0], r5
    exit
`

// barrier: warp 0 of each CTA writes shared memory, everyone reads it
// after a barrier.
const barrierSrc = `
.kernel barshare
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    shl   r2, r0, 2
    imul  r3, r0, 5
    st.shared [r2+0], r3
    bar
    xor   r4, r0, 1
    shl   r5, r4, 2
    ld.shared r6, [r5+0]
    imad  r7, r1, c[0], r0
    shl   r7, r7, 2
    iadd  r7, r7, c[1]
    st.global [r7+0], r6
    exit
`

func compileFor(t *testing.T, src string, opts compiler.Options) *compiler.Kernel {
	t.Helper()
	k, err := compiler.Compile(isa.MustParse(src), opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return k
}

func runKernel(t *testing.T, cfg Config, k *compiler.Kernel, spec LaunchSpec) *Result {
	t.Helper()
	spec.Kernel = k
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func saxpySpec() LaunchSpec {
	return LaunchSpec{
		GridCTAs:      32,
		ThreadsPerCTA: 128,
		ConcCTAs:      4,
		Consts:        []uint32{128, 0x10000, 0x20000, 3, 0x30000},
	}
}

func TestSaxpyBaselineFunctional(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{NoFlags: true})
	res := runKernel(t, Config{Mode: rename.ModeBaseline}, k, saxpySpec())
	// 32/16 SMs = 2 CTAs x 128 threads on our SM.
	if len(res.Stores) != 256 {
		t.Fatalf("stored %d words, want 256", len(res.Stores))
	}
	// Check an arbitrary thread's result: tid 5 of CTA 1 => gid 133.
	gid := uint32(133)
	x := memInit(0x10000 + gid*4)
	y := memInit(0x20000 + gid*4)
	want := x*3 + y
	if got := res.Stores[0x30000+gid*4]; got != want {
		t.Errorf("out[133] = %#x, want %#x", got, want)
	}
	if res.Cycles == 0 || res.Instrs == 0 {
		t.Error("no cycles or instructions recorded")
	}
}

// The soundness oracle: every register-management configuration must
// produce bit-identical stores for every kernel shape.
func TestFunctionalEquivalenceAcrossConfigs(t *testing.T) {
	kernels := []struct {
		name, src string
		spec      LaunchSpec
	}{
		{"saxpy", saxpySrc, saxpySpec()},
		{"divergent", divergentSrc, LaunchSpec{
			GridCTAs: 32, ThreadsPerCTA: 96, ConcCTAs: 3,
			Consts: []uint32{96, 0x40000},
		}},
		{"loop", loopSrc, LaunchSpec{
			GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
			Consts: []uint32{64, 0x1000, 5, 256 * 4, 0x50000},
		}},
		{"barrier", barrierSrc, LaunchSpec{
			GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
			Consts: []uint32{64, 0x60000},
		}},
	}
	for _, tk := range kernels {
		t.Run(tk.name, func(t *testing.T) {
			base := compileFor(t, tk.src, compiler.Options{NoFlags: true})
			want := runKernel(t, Config{Mode: rename.ModeBaseline}, base, tk.spec).Stores
			if len(want) == 0 {
				t.Fatal("baseline stored nothing")
			}
			virt := compileFor(t, tk.src, compiler.Options{})
			configs := []struct {
				name string
				cfg  Config
				k    *compiler.Kernel
			}{
				{"hw-only", Config{Mode: rename.ModeHWOnly}, base},
				{"compiler-1024", Config{Mode: rename.ModeCompiler}, virt},
				{"compiler-1024-gated", Config{Mode: rename.ModeCompiler, PowerGating: true, WakeupLatency: 1}, virt},
				{"gpu-shrink-512", Config{Mode: rename.ModeCompiler, PhysRegs: 512}, virt},
				{"gpu-shrink-512-gated", Config{Mode: rename.ModeCompiler, PhysRegs: 512, PowerGating: true, WakeupLatency: 10}, virt},
				{"no-flag-cache", Config{Mode: rename.ModeCompiler, FlagCacheEntries: -1}, virt},
			}
			for _, c := range configs {
				got := runKernel(t, c.cfg, c.k, tk.spec).Stores
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: stores differ from baseline (%d vs %d words)", c.name, len(got), len(want))
				}
			}
		})
	}
}

func TestSpilledProgramEquivalence(t *testing.T) {
	// The compiler-spill baseline (Fig. 11a) must also be functionally
	// identical, just slower.
	base := compileFor(t, loopSrc, compiler.Options{NoFlags: true})
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 5, 256 * 4, 0x50000},
	}
	want := runKernel(t, Config{Mode: rename.ModeBaseline}, base, spec)

	spilled, err := compiler.SpillTo(isa.MustParse(loopSrc), 6)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	ks, err := compiler.Compile(spilled, compiler.Options{NoFlags: true})
	if err != nil {
		t.Fatalf("Compile spilled: %v", err)
	}
	got := runKernel(t, Config{Mode: rename.ModeBaseline}, ks, spec)
	if !reflect.DeepEqual(got.Stores, want.Stores) {
		t.Error("spilled program results differ")
	}
	if got.Cycles <= want.Cycles {
		t.Errorf("spilled run (%d cycles) should be slower than baseline (%d)", got.Cycles, want.Cycles)
	}
	if got.MemRequests <= want.MemRequests {
		t.Error("spilled run should issue more memory requests")
	}
}

func TestVirtualizationReducesPeakLive(t *testing.T) {
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 20, 256 * 4, 0x50000},
	}
	base := compileFor(t, loopSrc, compiler.Options{NoFlags: true})
	rb := runKernel(t, Config{Mode: rename.ModeBaseline}, base, spec)
	virt := compileFor(t, loopSrc, compiler.Options{})
	rv := runKernel(t, Config{Mode: rename.ModeCompiler}, virt, spec)
	if rv.PeakLiveRegs >= rb.PeakLiveRegs {
		t.Errorf("virtualized peak live %d, baseline %d — expected reduction",
			rv.PeakLiveRegs, rb.PeakLiveRegs)
	}
	if rv.AllocationReduction() <= 0 {
		t.Errorf("AllocationReduction = %v, want > 0", rv.AllocationReduction())
	}
	if rb.AllocationReduction() != 0 {
		t.Errorf("baseline AllocationReduction = %v, want 0", rb.AllocationReduction())
	}
}

func TestFlagCacheCutsDecodedPirs(t *testing.T) {
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 50, 256 * 4, 0x50000},
	}
	virt := compileFor(t, loopSrc, compiler.Options{})
	noCache := runKernel(t, Config{Mode: rename.ModeCompiler, FlagCacheEntries: -1}, virt, spec)
	cached := runKernel(t, Config{Mode: rename.ModeCompiler, FlagCacheEntries: 10}, virt, spec)
	if noCache.DecodedPirs == 0 {
		t.Fatal("no pirs decoded without cache")
	}
	if cached.DecodedPirs*10 > noCache.DecodedPirs {
		t.Errorf("10-entry cache decoded %d pirs vs %d uncached — expected >90%% reduction",
			cached.DecodedPirs, noCache.DecodedPirs)
	}
	if cached.DynamicIncrease() >= noCache.DynamicIncrease() {
		t.Error("dynamic increase should shrink with a flag cache")
	}
}

func TestGPUShrinkThrottles(t *testing.T) {
	// 8 regs/warp x 2 warps x 4 CTAs = 64 regs needed; shrink the file to
	// 64 and force contention (low per-bank headroom plus pinned exempts).
	spec := LaunchSpec{
		GridCTAs: 64, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 8, 256 * 4, 0x50000},
	}
	base := compileFor(t, loopSrc, compiler.Options{NoFlags: true})
	want := runKernel(t, Config{Mode: rename.ModeBaseline}, base, spec)
	virt := compileFor(t, loopSrc, compiler.Options{})
	got := runKernel(t, Config{Mode: rename.ModeCompiler, PhysRegs: 64}, virt, spec)
	if !reflect.DeepEqual(got.Stores, want.Stores) {
		t.Error("shrunk run results differ")
	}
	if got.Throttle.Blocked == 0 {
		t.Log("note: no throttling occurred (enough headroom); tightening further")
	}
}

func TestPartialWarp(t *testing.T) {
	// 40 threads/CTA: one full warp + one 8-lane warp.
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 40, ConcCTAs: 2,
		Consts: []uint32{40, 0x40000},
	}
	base := compileFor(t, divergentSrc, compiler.Options{NoFlags: true})
	res := runKernel(t, Config{Mode: rename.ModeBaseline}, base, spec)
	if len(res.Stores) != 40 {
		t.Fatalf("stored %d words, want 40 (one per thread)", len(res.Stores))
	}
	virt := compileFor(t, divergentSrc, compiler.Options{})
	res2 := runKernel(t, Config{Mode: rename.ModeCompiler, PhysRegs: 512}, virt, spec)
	if !reflect.DeepEqual(res.Stores, res2.Stores) {
		t.Error("partial-warp results differ under virtualization")
	}
}

func TestDivergentResultValues(t *testing.T) {
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x40000},
	}
	k := compileFor(t, divergentSrc, compiler.Options{})
	res := runKernel(t, Config{Mode: rename.ModeCompiler}, k, spec)
	for gid := uint32(0); gid < 64; gid++ {
		var want uint32
		if gid%2 == 0 {
			want = gid*2 + 7
		} else {
			want = gid*3 + 7
		}
		if got := res.Stores[0x40000+gid*4]; got != want {
			t.Fatalf("out[%d] = %d, want %d", gid, got, want)
		}
	}
}

func TestBarrierSharedValues(t *testing.T) {
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x60000},
	}
	k := compileFor(t, barrierSrc, compiler.Options{})
	res := runKernel(t, Config{Mode: rename.ModeCompiler}, k, spec)
	// Thread i reads shared slot of thread i^1: value (i^1)*5.
	for tid := uint32(0); tid < 64; tid++ {
		want := (tid ^ 1) * 5
		if got := res.Stores[0x60000+tid*4]; got != want {
			t.Fatalf("out[%d] = %d, want %d", tid, got, want)
		}
	}
}

func TestLiveTraceSampling(t *testing.T) {
	spec := saxpySpec()
	k := compileFor(t, saxpySrc, compiler.Options{})
	res := runKernel(t, Config{Mode: rename.ModeCompiler, Trace: TraceConfig{SampleLiveEvery: 10}}, k, spec)
	if len(res.LiveSamples) == 0 {
		t.Fatal("no live samples recorded")
	}
	sawLive := false
	for _, s := range res.LiveSamples {
		if s.LiveRegs > s.AllocatedRegs {
			t.Fatalf("cycle %d: live %d > allocated %d", s.Cycle, s.LiveRegs, s.AllocatedRegs)
		}
		if s.LiveRegs > 0 {
			sawLive = true
		}
	}
	if !sawLive {
		t.Error("live register count never rose above zero")
	}
}

func TestRegEventTrace(t *testing.T) {
	spec := saxpySpec()
	k := compileFor(t, saxpySrc, compiler.Options{})
	res := runKernel(t, Config{
		Mode:  rename.ModeCompiler,
		Trace: TraceConfig{TrackWarp: 0, TrackRegs: []isa.RegID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
	}, k, spec)
	if len(res.RegEvents) == 0 {
		t.Fatal("no register events recorded")
	}
	mapped := 0
	for _, e := range res.RegEvents {
		if e.Mapped {
			mapped++
		}
	}
	if mapped == 0 {
		t.Error("no mapping events")
	}
}

func TestValidationErrors(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{NoFlags: true})
	bad := []LaunchSpec{
		{Kernel: k, GridCTAs: 0, ThreadsPerCTA: 64, ConcCTAs: 1},
		{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 0, ConcCTAs: 1},
		{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 2000, ConcCTAs: 1},
		{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 64, ConcCTAs: 0},
		{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 64, ConcCTAs: 9},
		{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 512, ConcCTAs: 8}, // 128 warps
		{Kernel: nil, GridCTAs: 1, ThreadsPerCTA: 64, ConcCTAs: 1},
	}
	for i, spec := range bad {
		if _, err := Run(Config{}, spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	spec := LaunchSpec{Kernel: k, GridCTAs: 1, ThreadsPerCTA: 64, ConcCTAs: 1}
	if _, err := Run(Config{PhysRegs: MaxPhysRegs + 16}, spec); err == nil {
		t.Errorf("PhysRegs %d accepted on one SM", MaxPhysRegs+16)
	}
	if _, err := RunGPU(Config{PhysRegs: MaxPhysRegs + 16}, spec); err == nil {
		t.Errorf("PhysRegs %d accepted on the device", MaxPhysRegs+16)
	}
}

func TestHWOnlyReleasesFewerThanCompiler(t *testing.T) {
	// The Fig. 15 premise: waiting for redefinition frees less than
	// releasing at last use.
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 20, 256 * 4, 0x50000},
	}
	base := compileFor(t, loopSrc, compiler.Options{NoFlags: true})
	virt := compileFor(t, loopSrc, compiler.Options{})
	hw := runKernel(t, Config{Mode: rename.ModeHWOnly}, base, spec)
	cp := runKernel(t, Config{Mode: rename.ModeCompiler}, virt, spec)
	if cp.PeakLiveRegs > hw.PeakLiveRegs {
		t.Errorf("compiler peak live %d > hw-only %d — compiler release should be at least as aggressive",
			cp.PeakLiveRegs, hw.PeakLiveRegs)
	}
}

func TestDecodedPirsZeroForBaseline(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{NoFlags: true})
	res := runKernel(t, Config{Mode: rename.ModeBaseline}, k, saxpySpec())
	if res.DecodedPirs != 0 || res.DecodedPbrs != 0 {
		t.Error("baseline decoded metadata instructions")
	}
	if res.DynamicIncrease() != 0 {
		t.Error("baseline dynamic increase nonzero")
	}
}

func TestGatedRunUsesFewerAwakeSubarrayCycles(t *testing.T) {
	spec := saxpySpec()
	k := compileFor(t, saxpySrc, compiler.Options{})
	gated := runKernel(t, Config{Mode: rename.ModeCompiler, PowerGating: true, WakeupLatency: 1}, k, spec)
	ungated := runKernel(t, Config{Mode: rename.ModeCompiler}, k, spec)
	gf := float64(gated.RF.AwakeSubarrayCyc) / float64(gated.RF.TotalSubarrayCyc)
	uf := float64(ungated.RF.AwakeSubarrayCyc) / float64(ungated.RF.TotalSubarrayCyc)
	if uf != 1 {
		t.Errorf("ungated awake fraction = %v, want 1", uf)
	}
	if gf >= 1 {
		t.Errorf("gated awake fraction = %v, want < 1", gf)
	}
}

func TestWakeupLatencySlowdownSmall(t *testing.T) {
	// Fig. 11b: even 10-cycle wakeups cost little.
	spec := saxpySpec()
	k := compileFor(t, saxpySrc, compiler.Options{})
	w1 := runKernel(t, Config{Mode: rename.ModeCompiler, PowerGating: true, WakeupLatency: 1}, k, spec)
	w10 := runKernel(t, Config{Mode: rename.ModeCompiler, PowerGating: true, WakeupLatency: 10}, k, spec)
	slowdown := float64(w10.Cycles) / float64(w1.Cycles)
	if slowdown > 1.10 {
		t.Errorf("10-cycle wakeup slowdown = %.3f, want < 1.10", slowdown)
	}
}

func TestMultipleCTAGenerationsReuseSlots(t *testing.T) {
	// More CTAs than concurrent slots: generations must recycle warp
	// slots and registers cleanly.
	spec := LaunchSpec{
		GridCTAs: 16 * 8, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x40000},
	}
	k := compileFor(t, divergentSrc, compiler.Options{})
	res := runKernel(t, Config{Mode: rename.ModeCompiler, PhysRegs: 256}, k, spec)
	// 8 CTAs x 64 threads on our SM.
	if len(res.Stores) != 8*64 {
		t.Fatalf("stored %d words, want %d", len(res.Stores), 8*64)
	}
	if res.RF.PeakLive > 256 {
		t.Error("peak live exceeded the physical file")
	}
}

func TestDivergenceStats(t *testing.T) {
	spec := LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x40000},
	}
	k := compileFor(t, divergentSrc, compiler.Options{NoFlags: true})
	res := runKernel(t, Config{Mode: rename.ModeBaseline}, k, spec)
	// The even/odd split diverges every warp exactly once.
	if res.DivergentBranches == 0 {
		t.Error("no divergent branches recorded")
	}
	if res.MaxStackDepth < 2 {
		t.Errorf("MaxStackDepth = %d, want >= 2", res.MaxStackDepth)
	}
	// The loop kernel's back edge is warp-uniform.
	lk := compileFor(t, loopSrc, compiler.Options{NoFlags: true})
	lres := runKernel(t, Config{Mode: rename.ModeBaseline}, lk, LaunchSpec{
		GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x1000, 5, 256 * 4, 0x50000},
	})
	if lres.UniformBranches == 0 {
		t.Error("no uniform branches recorded for the counted loop")
	}
	if lres.DivergentBranches != 0 {
		t.Errorf("counted loop recorded %d divergent branches", lres.DivergentBranches)
	}
}
