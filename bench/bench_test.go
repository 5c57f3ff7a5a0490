package main

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"regvirt/internal/jobs"
)

// TestEveryWorkloadEmitsEveryMetric runs each workload for about 50
// requests, untraced and traced, and checks that the run is correct
// (no failed request, the oracle matched every checked reply, the
// untraced run sent its whole sequence) and that it emits exactly the
// metrics BENCHMARK.json names, each finite and in its declared unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := runConfig{workload: name, seed: 7, seconds: 5, trace: traced, limit: 50, sizes: quickSizes, tmp: t.TempDir()}
			r, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !r.correct() || r.checked == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checked=%d mismatched=%d info=%v",
					name, traced, r.correct(), r.attempted, r.failed, r.checked, r.mismatched, r.info)
			}
			if !traced && r.attempted != cfg.limit {
				t.Errorf("%s: sent %d of its %d-request sequence", name, r.attempted, cfg.limit)
			}
			got := map[string]metric{}
			for _, m := range r.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
			for _, w := range want {
				m, ok := got[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, traced, w.Name)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, traced, w.Name, m.value)
				case m.unit != w.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, traced, w.Name, m.unit, w.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_rps", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{101, 100, 99, 102, 100, 98}, "unchanged"},
		{lower, []float64{120, 121, 119, 120, 122, 118}, "regressed"},
		{lower, []float64{80, 81, 79, 80, 82, 78}, "improved"},
		{higher, []float64{80, 81, 79, 80, 82, 78}, "regressed"},
		{lower, []float64{60, 140, 100, 70, 130, 100}, "unresolved"},
	} {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.m.Better, c.b, got, c.want)
		}
	}
}

// TestScreenReplacesLivelockedKernel pins the input screen to the
// kernels that made it necessary: compiler mode livelocks on the first
// candidate of each case (the second only on the whole device, at 32
// CTAs), so the generated input must be another kernel.
func TestScreenReplacesLivelockedKernel(t *testing.T) {
	device32 := func(kseed int64, i int) jobs.Job {
		return kernelJob(kseed, jobs.Job{Mode: coldModes[i%len(coldModes)].mode, PhysRegs: 1024, WholeGPU: true, GridCTAs: 32, GPUParallel: 1})
	}
	for _, c := range []struct {
		seed int64
		i    int
		mk   func(int64, int) jobs.Job
	}{{7, 2795, coldJob}, {11, 200, device32}} {
		kseed := kernelSeed(c.seed, c.i)
		j := c.mk(kseed, c.i)
		unscreened := j
		unscreened.Mode = "baseline"
		first := kernelJob(kseed, unscreened).Kernel
		if j.Mode != "compiler" {
			t.Fatalf("seed %d input %d is %s, not compiler mode", c.seed, c.i, j.Mode)
		}
		livelocked := j
		livelocked.Kernel = first
		if completes(livelocked) {
			t.Fatalf("seed %d input %d no longer livelocks in compiler mode; the screen in kernelJob may be unnecessary", c.seed, c.i)
		}
		if j.Kernel == first || !completes(j) {
			t.Errorf("seed %d input %d kept the livelocking kernel", c.seed, c.i)
		}
	}
}
