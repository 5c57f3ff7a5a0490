package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// Job is one simulation request: what to run (a built-in workload or
// inline kernel assembly) and the hardware configuration to run it
// under. The zero value of every field means "the default", so a JSON
// body of {"workload":"MatrixMul"} is a complete job. Five fields
// never influence the result and are excluded from the cache key:
// TimeoutMS (how long we are willing to wait), Async (how the caller
// wants to be answered), GPUParallel (accepted and ignored), and the
// scheduling metadata Tenant and Priority (which queue serves the job
// and in what order — identical jobs from different tenants share one
// cached result).
type Job struct {
	// Workload is a built-in workload name (workloads.Names). Exactly
	// one of Workload and Kernel must be set.
	Workload string `json:"workload,omitempty"`
	// Kernel is inline kernel assembly (docs/ISA.md grammar).
	Kernel string `json:"kernel,omitempty"`

	// Launch geometry for inline kernels (ignored with Workload, whose
	// Table 1 geometry is canonical). Defaults: 16 CTAs x 128 threads,
	// 4 concurrent CTAs per SM.
	GridCTAs      int `json:"grid_ctas,omitempty"`
	ThreadsPerCTA int `json:"threads_per_cta,omitempty"`
	ConcCTAs      int `json:"conc_ctas,omitempty"`

	// Mode is the register-management backend: "baseline", "hwonly",
	// "compiler" (default), "regcache" or "smemspill"
	// (rename.ModeNames is canonical).
	Mode string `json:"mode,omitempty"`
	// PhysRegs is the physical register count (0 = 1024 baseline; 512
	// is GPU-shrink). Must be a multiple of 16.
	PhysRegs int `json:"physregs,omitempty"`
	// PowerGating enables subarray gating; WakeupLatency is its cycle
	// penalty (0 = 1 cycle, the paper's default).
	PowerGating   bool `json:"gating,omitempty"`
	WakeupLatency int  `json:"wakeup,omitempty"`
	// FlagCacheEntries sizes the release-flag cache: 0 = arch default
	// (10 entries), -1 = disabled (Dynamic-0).
	FlagCacheEntries int `json:"flagcache,omitempty"`
	// TableBytes is the renaming-table budget: 0 = arch default (1 KB),
	// -1 = unconstrained.
	TableBytes int `json:"table_bytes,omitempty"`
	// RFCacheEntries sizes the register cache of mode "regcache" (0 =
	// arch default, 64 lines). Only valid with that mode.
	RFCacheEntries int `json:"rfcache,omitempty"`
	// RFCacheWriteThrough selects write-through for mode "regcache"
	// (default write-back). Only valid with that mode.
	RFCacheWriteThrough bool `json:"rfcache_wt,omitempty"`
	// SpillRegs is how many high-numbered architected registers mode
	// "smemspill" demotes to shared memory (0 = auto-fit to physregs).
	// Only valid with that mode.
	SpillRegs int `json:"spill_regs,omitempty"`
	// WholeGPU simulates all 16 SMs (sim.RunGPU) instead of one SM's
	// share of the grid.
	WholeGPU bool `json:"gpu,omitempty"`
	// GPUParallel is accepted and ignored: the device engine steps its
	// SMs on one goroutine. It keeps its validation (non-negative, and
	// above 1 only with "gpu": true) and stays out of the cache key, so
	// a request carrying it gets the status and ID it always got.
	//
	// Deprecated: gpu_par once set the device engine's compute-phase
	// worker count.
	GPUParallel int `json:"gpu_par,omitempty"`

	// Profile enables sim-phase profiling: the result gains a "profile"
	// object with per-SM cycle attribution and a warp-state timeline.
	// Profiling never changes the simulated outcome (the sim layer
	// proves byte-identity), but it DOES change the result payload, so
	// unlike gpu_par it stays in the cache key: a profiled and an
	// unprofiled submission of the same job are distinct results.
	Profile bool `json:"profile,omitempty"`

	// TimeoutMS bounds the job's wall-clock time including queueing
	// (0 = no deadline). Not part of the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async asks the service to answer with a job ID immediately
	// instead of blocking for the result. Not part of the cache key.
	Async bool `json:"async,omitempty"`

	// Tenant names the fair-share queue the job is scheduled under
	// (empty = "default"; the HTTP layer also accepts the
	// X-Regvd-Tenant header). Like gpu_par it never influences the
	// result, so it is excluded from the cache key — identical jobs
	// from different tenants dedup onto one simulation.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the job within its tenant's queue (higher first;
	// bounded to [-100, 100], and by the tenant's configured cap). A
	// higher-priority arrival may checkpoint-preempt a lower-priority
	// running job. Not part of the cache key.
	Priority int `json:"priority,omitempty"`
}

// normalized returns the job with every default made explicit and the
// non-content fields (TimeoutMS, Async) cleared — the canonical form
// the cache key is computed over, so "physregs":1024 and an absent
// physregs address the same result.
func (j Job) normalized() Job {
	if j.Mode == "" {
		j.Mode = "compiler"
	} else if m, err := rename.ParseMode(j.Mode); err == nil {
		// Aliases ("hw-only") collapse onto the canonical spelling so
		// they share a cache key with it.
		j.Mode = m.CanonicalName()
	}
	if j.PhysRegs == 0 {
		j.PhysRegs = arch.NumPhysRegs
	}
	if j.WakeupLatency == 0 {
		j.WakeupLatency = 1
	}
	if j.FlagCacheEntries == 0 {
		j.FlagCacheEntries = arch.FlagCacheEntries
	}
	if j.TableBytes == 0 {
		j.TableBytes = arch.RenameTableBudgetBytes
	}
	// Backend-specific knobs: defaults become explicit for the mode that
	// reads them and are zeroed for every other mode, so an irrelevant
	// knob can never fragment the result cache.
	if j.Mode == "regcache" {
		if j.RFCacheEntries == 0 {
			j.RFCacheEntries = arch.RFCacheEntries
		}
	} else {
		j.RFCacheEntries = 0
		j.RFCacheWriteThrough = false
	}
	if j.Mode != "smemspill" {
		j.SpillRegs = 0
	}
	if j.Workload != "" {
		// Geometry comes from the workload's Table 1 row.
		j.GridCTAs, j.ThreadsPerCTA, j.ConcCTAs = 0, 0, 0
	} else {
		if j.GridCTAs == 0 {
			j.GridCTAs = 16
		}
		if j.ThreadsPerCTA == 0 {
			j.ThreadsPerCTA = 128
		}
		if j.ConcCTAs == 0 {
			j.ConcCTAs = 4
		}
	}
	j.TimeoutMS = 0
	j.Async = false
	j.GPUParallel = 0 // ignored; never affects the result
	j.Tenant = ""     // scheduling metadata; results dedup across tenants
	j.Priority = 0
	return j
}

// schedTenant is the queue the job lands in: the explicit tenant, or
// the shared default queue for tenantless requests.
func (j Job) schedTenant() string {
	if j.Tenant == "" {
		return sched.DefaultTenant
	}
	return j.Tenant
}

// validTenantName bounds tenant names: up to 64 bytes of
// [A-Za-z0-9._-], so names are safe in logs, metrics keys and headers.
func validTenantName(s string) bool {
	if len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// deviceFlagCacheOffSalt re-keys whole-device jobs that disable the
// flag cache (a negative flagcache). The device once applied the
// config defaults a second time per SM, which turned "no cache" into
// the default 10-entry cache; results stored under the unsalted key
// were simulated with that cache and are never served for these jobs.
const deviceFlagCacheOffSalt = "\x00device-flagcache-off"

// Key is the job's content address: a hex SHA-256 prefix over the
// canonical JSON encoding of the normalized spec. Jobs that simulate
// the same thing share a key (and therefore a cached result and an ID)
// even when they spell their defaults differently. DESIGN.md §"jobs"
// documents the scheme field by field.
func (j Job) Key() string {
	n := j.normalized()
	b, err := json.Marshal(n)
	if err != nil {
		// A Job is plain data; Marshal cannot fail. Keep the compiler
		// honest without making every caller thread an error.
		panic("jobs: marshal job: " + err.Error())
	}
	if n.WholeGPU && n.FlagCacheEntries < 0 {
		b = append(b, deviceFlagCacheOffSalt...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// MaxKernelInstrs bounds the instruction count of an inline kernel.
// Some kernel shapes cost the front end time or memory that grows
// faster than the kernel: N nested divergent branches list N²/2 region
// members, and a dying read in each of their blocks makes the sibling
// check cubic. At this bound the worst such shapes compile in about
// 0.5 s (nested branches, each with its own join, and a dying read in
// every block) or 35 ms and 47 MB (plain nesting) on a 2-vCPU host;
// Table 1 kernels have at most 47 instructions and generated bench
// kernels at most 141.
const MaxKernelInstrs = 1000

// Validate rejects malformed specs before they reach the queue. It does
// no compile work: an inline kernel is only counted, by isa.Parse's own
// first pass, so a router and a shard refuse an oversized one alike.
func (j Job) Validate() error {
	switch {
	case j.Workload == "" && j.Kernel == "":
		return fmt.Errorf("jobs: one of workload or kernel is required")
	case j.Workload != "" && j.Kernel != "":
		return fmt.Errorf("jobs: workload and kernel are mutually exclusive")
	}
	if n, _ := isa.Count(j.Kernel); n > MaxKernelInstrs {
		return fmt.Errorf("jobs: kernel has %d instructions, more than the %d a job may carry", n, MaxKernelInstrs)
	}
	if j.Mode != "" {
		if _, err := rename.ParseMode(j.Mode); err != nil {
			// ParseMode's message lists the valid modes.
			return fmt.Errorf("jobs: %w", err)
		}
	}
	if j.RFCacheEntries < 0 {
		return fmt.Errorf("jobs: rfcache %d must be non-negative", j.RFCacheEntries)
	}
	if (j.RFCacheEntries != 0 || j.RFCacheWriteThrough) && j.Mode != "regcache" {
		return fmt.Errorf("jobs: rfcache/rfcache_wt require mode \"regcache\" (got %q)", j.Mode)
	}
	if j.SpillRegs < 0 || j.SpillRegs >= isa.MaxRegsPerThread {
		return fmt.Errorf("jobs: spill_regs %d out of range [0, %d)", j.SpillRegs, isa.MaxRegsPerThread)
	}
	if j.SpillRegs != 0 && j.Mode != "smemspill" {
		return fmt.Errorf("jobs: spill_regs requires mode \"smemspill\" (got %q)", j.Mode)
	}
	if j.Workload != "" {
		if err := workloads.CheckName(j.Workload); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	if j.PhysRegs < 0 || j.PhysRegs%16 != 0 {
		return fmt.Errorf("jobs: physregs %d must be a non-negative multiple of 16", j.PhysRegs)
	}
	if j.PhysRegs > sim.MaxPhysRegs {
		return fmt.Errorf("jobs: physregs %d above the limit of %d", j.PhysRegs, sim.MaxPhysRegs)
	}
	if j.TimeoutMS < 0 {
		return fmt.Errorf("jobs: negative timeout_ms %d", j.TimeoutMS)
	}
	if j.GPUParallel < 0 {
		return fmt.Errorf("jobs: negative gpu_par %d", j.GPUParallel)
	}
	if j.GPUParallel > 1 && !j.WholeGPU {
		return fmt.Errorf("jobs: gpu_par %d requires \"gpu\": true (single-SM runs have no compute phase to parallelize)", j.GPUParallel)
	}
	if !validTenantName(j.Tenant) {
		return fmt.Errorf("jobs: invalid tenant %q (up to 64 bytes of [A-Za-z0-9._-])", j.Tenant)
	}
	if j.Priority < -100 || j.Priority > 100 {
		return fmt.Errorf("jobs: priority %d out of range [-100, 100]", j.Priority)
	}
	return nil
}

func (j Job) renameMode() (rename.Mode, error) {
	if j.Mode == "" {
		return rename.ModeCompiler, nil
	}
	m, err := rename.ParseMode(j.Mode)
	if err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	return m, nil
}

// buildKernel compiles n's kernel (n is a normalized job) for mode
// under a table budget of tableBytes. Nothing keeps the compiled
// kernel: compiling is one static pass per job, and a job the service
// has answered before is served from a result tier without reaching
// here.
func buildKernel(n Job, mode rename.Mode, tableBytes int) (*compiler.Kernel, sim.LaunchSpec, error) {
	noFlags := mode != rename.ModeCompiler
	if n.Workload != "" {
		w, err := workloads.ByName(n.Workload)
		if err != nil {
			return nil, sim.LaunchSpec{}, err
		}
		opts := w.CompileOptions()
		opts.TableBytes = tableBytes
		opts.NoFlags = noFlags
		k, err := compiler.Compile(w.Program(), opts)
		if err != nil {
			return nil, sim.LaunchSpec{}, err
		}
		return k, w.Spec(k), nil
	}

	p, err := isa.Parse(n.Kernel)
	if err == nil {
		err = p.Validate()
	}
	if err != nil {
		return nil, sim.LaunchSpec{}, &KernelError{Err: err}
	}
	k, err := compiler.Compile(p, compiler.Options{
		TableBytes:    tableBytes,
		ResidentWarps: (n.ThreadsPerCTA + arch.WarpSize - 1) / arch.WarpSize * n.ConcCTAs,
		NoFlags:       noFlags,
	})
	if err != nil {
		return nil, sim.LaunchSpec{}, err
	}
	spec := sim.LaunchSpec{Kernel: k, GridCTAs: n.GridCTAs, ThreadsPerCTA: n.ThreadsPerCTA, ConcCTAs: n.ConcCTAs}
	return k, spec, nil
}

// Execute runs one job to completion on the calling goroutine (the
// pool-free path cmd/regvsim uses). ctx cancellation aborts the
// simulation cooperatively via sim.Config.Cancel. A panicking
// simulation is contained and returned as a *PanicError, mirroring
// the pool's worker containment.
func Execute(ctx context.Context, j Job) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, toPanicError(v)
		}
	}()
	return execute(ctx, j, j.Key(), nil, runHooks{})
}

// runHooks threads the pool's durability callbacks into one execution:
// periodic checkpointing (checkpoint also receives the final snapshot
// of a cancelled run), and an optional checkpoint to resume from
// instead of starting at cycle 0. The zero value runs the job plainly.
type runHooks struct {
	every      uint64
	checkpoint func(*sim.Checkpoint)
	resume     *sim.Checkpoint
}

// execute runs one job; key is j.Key(), stamped as the result's ID.
// faultHook, when non-nil, is threaded into sim.Config.FaultHook (the
// pool passes its injector's hook here).
func execute(ctx context.Context, j Job, key string, faultHook func(string) error, hooks runHooks) (*Result, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	mode, err := j.renameMode()
	if err != nil {
		return nil, err
	}
	n := j.normalized()
	tableBytes := max(n.TableBytes, 0) // compiler convention: 0 = unconstrained
	k, spec, err := buildKernel(n, mode, tableBytes)
	if err != nil {
		return nil, err
	}
	wakeup := n.WakeupLatency
	flagEntries := n.FlagCacheEntries
	cfg := sim.Config{
		Mode: mode, PhysRegs: n.PhysRegs, PowerGating: n.PowerGating,
		WakeupLatency: wakeup, FlagCacheEntries: flagEntries,
		RFCacheEntries:      n.RFCacheEntries,
		RFCacheWriteThrough: n.RFCacheWriteThrough,
		SpillRegs:           n.SpillRegs,
		Profile:             n.Profile,
		Cancel:              ctx.Done(),
		FaultHook:           faultHook,
		// Durability hooks: these never influence the result
		// (checkpoint_test.go proves checkpointing is observation-only),
		// so they are not part of the cache key.
		CheckpointEvery: hooks.every,
		Checkpoint:      hooks.checkpoint,
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.WholeGPU {
		var g *sim.GPUResult
		var gerr error
		if hooks.resume != nil {
			g, gerr = sim.ResumeGPU(cfg, spec, hooks.resume)
			if errors.Is(gerr, sim.ErrBadCheckpoint) {
				// Determinism makes a stale/corrupt checkpoint harmless:
				// restarting from cycle 0 reaches the identical result.
				g, gerr = sim.RunGPU(cfg, spec)
			}
		} else {
			g, gerr = sim.RunGPU(cfg, spec)
		}
		if gerr != nil {
			return nil, gerr
		}
		r := ResultFromGPU(k, cfg, tableBytes, g)
		r.ID = key
		return r, nil
	}
	var res *sim.Result
	var rerr error
	if hooks.resume != nil {
		res, rerr = sim.Resume(cfg, spec, hooks.resume)
		if errors.Is(rerr, sim.ErrBadCheckpoint) {
			res, rerr = sim.Run(cfg, spec)
		}
	} else {
		res, rerr = sim.Run(cfg, spec)
	}
	if rerr != nil {
		return nil, rerr
	}
	r := ResultFromSim(k, cfg, tableBytes, res)
	r.ID = key
	return r, nil
}
