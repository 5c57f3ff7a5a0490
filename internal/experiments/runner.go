// Package experiments reproduces every table and figure of the paper's
// evaluation (§9) on the simulator: the same workloads, configurations
// and metrics, returned as structured data that cmd/experiments renders
// and bench_test.go regenerates. The per-experiment index lives in
// DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"

	"regvirt/internal/compiler"
	"regvirt/internal/jobs"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/throttle"
	"regvirt/internal/workloads"
)

// KernelKind selects which compilation of a workload to run.
type KernelKind int

// Kernel kinds.
const (
	// KernelBaseline has no release metadata (conventional GPU).
	KernelBaseline KernelKind = iota
	// KernelVirt carries pir/pbr metadata under the 1 KB table budget.
	KernelVirt
	// KernelVirtUncon carries metadata with an unconstrained table.
	KernelVirtUncon
	// KernelSpill is the Fig. 11a compiler-spill baseline, recompiled to
	// fit half the register budget.
	KernelSpill
)

// Runner memoizes compilations and simulation results so that the
// figures, which share many configurations, reuse work. The memo maps
// are jobs.Cache instances (singleflight, mutex-guarded), so one
// Runner may be shared by concurrent figure computations
// (cmd/experiments -j): the same (workload, kind, config) requested
// from two goroutines simulates once. Cached values are shared —
// callers must not mutate a returned Kernel or Result.
type Runner struct {
	kernels    *jobs.Cache[kernelKey, *compiler.Kernel]
	results    *jobs.Cache[resultKey, *sim.Result]
	gpuResults *jobs.Cache[resultKey, *sim.GPUResult]
}

type kernelKey struct {
	name string
	kind KernelKind
}

type resultKey struct {
	name string
	kind KernelKind
	cfg  configKey
}

// configKey is the hashable image of sim.Config. Every field of
// sim.Config that can influence a Result must appear here, or two
// different configurations would collide on one cache slot (the
// DESIGN.md cache-key table mirrors this struct).
type configKey struct {
	mode        rename.Mode
	physRegs    int
	gating      bool
	wakeup      int
	flagEnt     int
	allocPol    regfile.AllocPolicy
	throttlePol throttle.Policy
	sched       sim.SchedPolicy
	renameLat   int
	poison      bool
	selfCheck   int
	maxCycles   uint64
	sampleLive  int
	trackWarp   int
	trackRegs   string // fmt.Sprint of the slice, for comparability
	rfCacheEnt  int
	rfCacheWT   bool
	spillRegs   int
}

func confKey(cfg sim.Config) configKey {
	return configKey{
		mode: cfg.Mode, physRegs: cfg.PhysRegs, gating: cfg.PowerGating,
		wakeup: cfg.WakeupLatency, flagEnt: cfg.FlagCacheEntries,
		allocPol: cfg.AllocPolicy, throttlePol: cfg.ThrottlePolicy,
		sched: cfg.Scheduler, renameLat: cfg.RenameLatency,
		poison: cfg.PoisonReleased, selfCheck: cfg.SelfCheckEvery,
		maxCycles: cfg.MaxCycles, sampleLive: cfg.Trace.SampleLiveEvery,
		trackWarp: cfg.Trace.TrackWarp, trackRegs: fmt.Sprint(cfg.Trace.TrackRegs),
		rfCacheEnt: cfg.RFCacheEntries, rfCacheWT: cfg.RFCacheWriteThrough,
		spillRegs: cfg.SpillRegs,
	}
}

// NewRunner returns an empty memoizing runner.
func NewRunner() *Runner {
	return &Runner{
		kernels:    jobs.NewCache[kernelKey, *compiler.Kernel](),
		results:    jobs.NewCache[resultKey, *sim.Result](),
		gpuResults: jobs.NewCache[resultKey, *sim.GPUResult](),
	}
}

// Kernel compiles (or returns the cached compilation of) a workload.
func (r *Runner) Kernel(w *workloads.Workload, kind KernelKind) (*compiler.Kernel, error) {
	key := kernelKey{w.Name, kind}
	k, _, err := r.kernels.Do(context.Background(), key, func() (*compiler.Kernel, error) {
		return compileKind(w, kind)
	})
	return k, err
}

// compileKind performs the actual compilation for one kernel kind.
func compileKind(w *workloads.Workload, kind KernelKind) (*compiler.Kernel, error) {
	var (
		k   *compiler.Kernel
		err error
	)
	switch kind {
	case KernelBaseline:
		k, err = w.CompileBaseline()
	case KernelVirt:
		k, err = w.Compile()
	case KernelVirtUncon:
		opts := w.CompileOptions()
		opts.TableBytes = 0
		k, err = compiler.Compile(w.Program(), opts)
	case KernelSpill:
		// Fig. 11a: recompile to fit the halved register file. The budget
		// per warp is what keeps the resident warps of the workload within
		// 64 KB: floor(512 / resident warps), at least the spill minimum.
		budget := 512 / w.ResidentWarps()
		if budget < 4 {
			budget = 4
		}
		if budget > w.PaperRegs {
			budget = w.PaperRegs
		}
		sp, serr := compiler.SpillTo(w.Program(), budget)
		if serr != nil {
			return nil, serr
		}
		opts := w.CompileOptions()
		opts.NoFlags = true
		k, err = compiler.Compile(sp, opts)
	default:
		return nil, fmt.Errorf("experiments: unknown kernel kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: compile %s (%d): %w", w.Name, kind, err)
	}
	return k, nil
}

// Run simulates (or returns the cached result of) a workload under a
// configuration.
func (r *Runner) Run(w *workloads.Workload, kind KernelKind, cfg sim.Config) (*sim.Result, error) {
	key := resultKey{w.Name, kind, confKey(cfg)}
	res, _, err := r.results.Do(context.Background(), key, func() (*sim.Result, error) {
		k, kerr := r.Kernel(w, kind)
		if kerr != nil {
			return nil, kerr
		}
		res, rerr := sim.Run(cfg, w.Spec(k))
		if rerr != nil {
			return nil, fmt.Errorf("experiments: run %s (%d): %w", w.Name, kind, rerr)
		}
		return res, nil
	})
	return res, err
}

// RunGPU simulates (or returns the cached result of) a workload on the
// whole 16-SM device, keyed like Run by confKey(cfg).
func (r *Runner) RunGPU(w *workloads.Workload, kind KernelKind, cfg sim.Config) (*sim.GPUResult, error) {
	key := resultKey{w.Name, kind, confKey(cfg)}
	res, _, err := r.gpuResults.Do(context.Background(), key, func() (*sim.GPUResult, error) {
		k, kerr := r.Kernel(w, kind)
		if kerr != nil {
			return nil, kerr
		}
		res, rerr := sim.RunGPU(cfg, w.Spec(k))
		if rerr != nil {
			return nil, fmt.Errorf("experiments: rungpu %s (%d): %w", w.Name, kind, rerr)
		}
		return res, nil
	})
	return res, err
}

// Standard configurations of §9.
func baselineCfg() sim.Config {
	return sim.Config{Mode: rename.ModeBaseline}
}

func virtCfg() sim.Config {
	return sim.Config{Mode: rename.ModeCompiler}
}

func virtGatedCfg() sim.Config {
	return sim.Config{Mode: rename.ModeCompiler, PowerGating: true, WakeupLatency: 1}
}

func shrinkCfg() sim.Config {
	return sim.Config{Mode: rename.ModeCompiler, PhysRegs: 512}
}

func shrinkGatedCfg() sim.Config {
	return sim.Config{Mode: rename.ModeCompiler, PhysRegs: 512, PowerGating: true, WakeupLatency: 1}
}

func hwOnlyCfg() sim.Config {
	return sim.Config{Mode: rename.ModeHWOnly}
}
