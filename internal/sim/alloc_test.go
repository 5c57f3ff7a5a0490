package sim_test

import (
	"testing"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/kernelgen"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// allocWindow is how many cycles each steady-state measurement spans.
const allocWindow = 200

// windowAllocs returns how many allocations allocWindow calls of step
// make in total (testing.AllocsPerRun averages per run and rounds
// down, which would hide a sporadic allocation; one run of the whole
// window does not).
func windowAllocs(step func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < allocWindow; i++ {
			step()
		}
	})
}

func matrixMul(t *testing.T) sim.LaunchSpec {
	t.Helper()
	w, err := workloads.ByName("MatrixMul")
	if err != nil {
		t.Fatal(err)
	}
	k, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return w.Spec(k)
}

// TestSteadyStateAllocatesNothing proves the simulator core allocates
// nothing per simulated cycle once a launch is under way: one SM step,
// one SM step under the §8.1 spill fallback, and one whole-device
// engine cycle (compute plus commit). The measured window holds no CTA
// launch or exit, which allocate by design (warp and SIMT-stack slabs
// and CTA state), and no spill, which saves the warp's registers.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	spec := matrixMul(t)
	cfg := sim.Config{Mode: rename.ModeCompiler, PhysRegs: 512}

	t.Run("sm", func(t *testing.T) {
		sm, err := sim.NewLaunchedSM(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			sm.Step()
		}
		live, done := sm.CTAs()
		if live == 0 {
			t.Fatal("no CTA resident: the window must be mid-run")
		}
		if got := windowAllocs(sm.Step); got != 0 {
			t.Errorf("%d steps allocate %v times, want 0", allocWindow, got)
		}
		if l, d := sm.CTAs(); l != live || d != done {
			t.Fatalf("window saw CTAs launch or exit (live %d→%d, done %d→%d)", live, l, done, d)
		}
	})
	// A file far too small for the hungry kernel: every 10,000 cycles
	// without progress one more warp is spilled, and from
	// 4*GlobalMemLatency cycles later the SM tries every cycle to
	// restore it while the throttle gates refuse.
	t.Run("spill", func(t *testing.T) {
		spec, err := sim.HungrySpec()
		if err != nil {
			t.Fatal(err)
		}
		sm, err := sim.NewLaunchedSM(sim.Config{Mode: rename.ModeCompiler, PhysRegs: 80}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if i == 50_000 {
				t.Fatal("no warp spilled")
			}
			sm.Step()
			if _, spilled := sm.Spills(); spilled > 0 {
				break
			}
		}
		for i := 0; i < 4*arch.GlobalMemLatency+1; i++ {
			sm.Step()
		}
		live, done := sm.CTAs()
		spills, spilled := sm.Spills()
		if spilled == 0 {
			t.Fatal("the spilled warp came back before the window")
		}
		if got := windowAllocs(sm.Step); got != 0 {
			t.Errorf("%d steps with %d warps spilled allocate %v times, want 0", allocWindow, spilled, got)
		}
		if l, d := sm.CTAs(); l != live || d != done {
			t.Fatalf("window saw CTAs launch or exit (live %d→%d, done %d→%d)", live, l, done, d)
		}
		if n, w := sm.Spills(); n != spills || w != spilled {
			t.Fatalf("window saw a spill or restore (spills %d→%d, spilled %d→%d)", spills, n, spilled, w)
		}
	})
	t.Run("gpu", func(t *testing.T) {
		eng, err := sim.NewLaunchedGPU(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			if err := eng.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		live, done := eng.CTAs()
		if live == 0 {
			t.Fatal("no CTA resident: the window must be mid-run")
		}
		if got := windowAllocs(cycle); got != 0 {
			t.Errorf("%d device cycles allocate %v times, want 0", allocWindow, got)
		}
		if l, d := eng.CTAs(); l != live || d != done {
			t.Fatalf("window saw CTAs launch or exit (live %d→%d, done %d→%d)", live, l, done, d)
		}
	})
}

// launchKernels are the fixed generated kernels TestLaunchAllocations
// runs: bench parameters (kernelgen Regs 8+seed%8, MaxItems 10,
// MaxDepth 2) at the default 16x128 geometry, 4 CTAs per SM.
func launchKernels(t *testing.T, mode rename.Mode) []sim.LaunchSpec {
	t.Helper()
	var specs []sim.LaunchSpec
	for seed := int64(1 << 20); seed < 1<<20+8; seed++ {
		prog := kernelgen.Generate(seed, kernelgen.Params{Regs: 8 + int(seed%8), MaxItems: 10, MaxDepth: 2})
		k, err := compiler.Compile(prog, compiler.Options{
			TableBytes: arch.RenameTableBudgetBytes, ResidentWarps: 16, NoFlags: mode != rename.ModeCompiler,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sim.LaunchSpec{Kernel: k, GridCTAs: 16, ThreadsPerCTA: 128, ConcCTAs: 4})
	}
	return specs
}

// Per-launch allocation bounds of TestLaunchAllocations: the maximum
// measured over its kernels and backends (322 and 49) plus about 10%.
const (
	gpuLaunchAllocs = 354
	smLaunchAllocs  = 54
)

// TestLaunchAllocations bounds what building and running one launch
// allocates, on every backend, through both engines: the bench's
// whole-device job (16 CTAs on the full file) and its single-SM job
// (the register-saving backends on the shrunk 512-register file). A
// launch's simulator state is sized from the launch once, so what
// remains is register storage on first use, the global-memory map, the
// per-CTA warp slabs and engine bookkeeping.
func TestLaunchAllocations(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	modes := []struct {
		mode     rename.Mode
		physregs int
	}{
		{rename.ModeCompiler, 512}, {rename.ModeRegCache, 512}, {rename.ModeSMemSpill, 512},
		{rename.ModeBaseline, 1024}, {rename.ModeHWOnly, 1024},
	}
	for _, m := range modes {
		specs := launchKernels(t, m.mode)
		t.Run(m.mode.String(), func(t *testing.T) {
			var gpuMax, smMax float64
			for _, spec := range specs {
				gpu := testing.AllocsPerRun(1, func() {
					if _, err := sim.RunGPU(sim.Config{Mode: m.mode, PhysRegs: 1024}, spec); err != nil {
						t.Fatal(err)
					}
				})
				sm := testing.AllocsPerRun(1, func() {
					if _, err := sim.Run(sim.Config{Mode: m.mode, PhysRegs: m.physregs}, spec); err != nil {
						t.Fatal(err)
					}
				})
				gpuMax, smMax = max(gpuMax, gpu), max(smMax, sm)
			}
			t.Logf("RunGPU %v, Run %v allocations per launch (max over %d kernels)", gpuMax, smMax, len(specs))
			if gpuMax > gpuLaunchAllocs {
				t.Errorf("RunGPU allocates %v times per launch, want at most %d", gpuMax, gpuLaunchAllocs)
			}
			if smMax > smLaunchAllocs {
				t.Errorf("Run allocates %v times per launch, want at most %d", smMax, smLaunchAllocs)
			}
		})
	}
}
