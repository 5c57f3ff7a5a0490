package sim_test

import (
	"fmt"
	"testing"

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
// and one whole-device engine cycle (compute plus commit) with the
// compute phase on one goroutine and on two. The measured window holds
// no CTA launch or exit, which allocate by design (warp objects and
// CTA state).
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
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("gpu-par%d", par), func(t *testing.T) {
			c := cfg
			c.GPUParallel = par
			eng, stop, err := sim.NewLaunchedGPU(c, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
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
}
