package regvirt

// BenchmarkRunGPU measures the two-phase whole-device engine: the
// sequential reference (gpu-par=1) against the pooled compute phase
// (gpu-par=8) across memory-diverse workloads under every register
// management backend ("Dynamic" = hardware-only renaming, "Static" =
// compiler-assisted, plus the register-cache and shared-memory-spill
// wrappers). Run via:
//
//	make bench-gpu
//
// Besides the standard bench output (ns/op, allocs/op, ns/simcycle,
// allocs/simcycle, where a simulated cycle is one device cycle) it
// writes BENCH_gpu.json: per configuration the median ns/op,
// allocs/op and ns/simcycle over the -count repetitions and their
// spread, the parallel speedup, and the host core count and
// GOMAXPROCS. The speedup is a wall-clock property only: the engine
// commits shared state in fixed SM order, so both settings produce
// byte-identical results (internal/sim's determinism matrix enforces
// this), and with fewer cores than workers the extra goroutines only
// add barrier overhead.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
)

const benchGPUWorkers = 8

type gpuBenchEntry struct {
	Workload      string  `json:"workload"`
	Mode          string  `json:"mode"`
	Workers       int     `json:"workers"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	NsPerSimCycle float64 `json:"ns_per_simcycle"`
	// Runs is how many -count repetitions the medians above are over;
	// SpreadPct is their ns/op range, max − min, as a percentage of the
	// median.
	Runs      int     `json:"runs"`
	SpreadPct float64 `json:"spread_pct"`
}

type gpuBenchReport struct {
	Cores      int                `json:"cores"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Workers    int                `json:"workers"`
	Entries    []gpuBenchEntry    `json:"entries"`
	Speedup    map[string]float64 `json:"speedup"` // workload/mode -> seq/par
}

// gpuBench collects one measurement per configuration per -count
// repetition, in first-run order.
var gpuBench struct {
	mu      sync.Mutex
	order   []string
	samples map[string][]gpuBenchEntry
}

func BenchmarkRunGPU(b *testing.B) {
	apps := []string{"VectorAdd", "MatrixMul", "Reduction"}
	modes := []struct {
		name string
		mode Mode
	}{
		{"Dynamic", ModeHWOnly}, {"Static", ModeCompiler},
		// The wrapper backends: register-cache fronting (default 64 lines)
		// and shared-memory demotion (auto-fit to the 512-register file).
		{"RegCache", ModeRegCache}, {"SMemSpill", ModeSMemSpill},
	}
	for _, app := range apps {
		w, err := WorkloadByName(app)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			k, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			if m.mode != ModeCompiler {
				opts := w.CompileOptions()
				opts.NoFlags = true
				if k, err = Compile(w.Program(), opts); err != nil {
					b.Fatal(err)
				}
			}
			spec := w.Spec(k)
			for _, workers := range []int{1, benchGPUWorkers} {
				name := fmt.Sprintf("%s/%s/par%d", app, m.name, workers)
				// Each -count repetition calls the closure with b.N == 1
				// first, then (unless -benchtime=1x) with larger b.N; the
				// last call of a repetition is its measurement.
				var reps []simCost
				b.Run(name, func(b *testing.B) {
					cfg := Config{Mode: m.mode, PhysRegs: 512, GPUParallel: workers}
					c := measureSim(b, func() uint64 {
						res, err := RunGPU(cfg, spec)
						if err != nil {
							b.Fatal(err)
						}
						return res.Cycles
					})
					if b.N == 1 || len(reps) == 0 {
						reps = append(reps, c)
					} else {
						reps[len(reps)-1] = c
					}
				})
				for _, c := range reps {
					recordGPUBench(name, gpuBenchEntry{
						Workload: app, Mode: m.name, Workers: workers,
						NsPerOp: c.nsPerOp, AllocsPerOp: c.allocsPerOp, NsPerSimCycle: c.nsPerCycle,
					})
				}
			}
		}
	}
	if err := writeGPUBenchReport(); err != nil {
		b.Fatal(err)
	}
}

func recordGPUBench(key string, e gpuBenchEntry) {
	gpuBench.mu.Lock()
	defer gpuBench.mu.Unlock()
	if gpuBench.samples == nil {
		gpuBench.samples = map[string][]gpuBenchEntry{}
	}
	if _, ok := gpuBench.samples[key]; !ok {
		gpuBench.order = append(gpuBench.order, key)
	}
	gpuBench.samples[key] = append(gpuBench.samples[key], e)
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeGPUBenchReport emits BENCH_gpu.json next to the package (the
// repo root): each configuration once, its figures the medians of the
// repetitions recorded so far.
func writeGPUBenchReport() error {
	gpuBench.mu.Lock()
	defer gpuBench.mu.Unlock()
	rep := gpuBenchReport{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    benchGPUWorkers,
		Speedup:    map[string]float64{},
	}
	for _, key := range gpuBench.order {
		runs := gpuBench.samples[key]
		field := func(f func(gpuBenchEntry) float64) []float64 {
			out := make([]float64, len(runs))
			for i, e := range runs {
				out[i] = f(e)
			}
			return out
		}
		ns := field(func(e gpuBenchEntry) float64 { return e.NsPerOp })
		e := runs[0]
		e.NsPerOp = median(ns)
		e.AllocsPerOp = median(field(func(e gpuBenchEntry) float64 { return e.AllocsPerOp }))
		e.NsPerSimCycle = median(field(func(e gpuBenchEntry) float64 { return e.NsPerSimCycle }))
		e.Runs = len(runs)
		if e.NsPerOp > 0 {
			e.SpreadPct = (slices.Max(ns) - slices.Min(ns)) / e.NsPerOp * 100
		}
		rep.Entries = append(rep.Entries, e)
	}
	for _, e := range rep.Entries {
		if e.Workers != 1 {
			continue
		}
		for _, p := range rep.Entries {
			if p.Workload == e.Workload && p.Mode == e.Mode && p.Workers == benchGPUWorkers && p.NsPerOp > 0 {
				rep.Speedup[e.Workload+"/"+e.Mode] = e.NsPerOp / p.NsPerOp
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_gpu.json", append(data, '\n'), 0o644)
}
