// Package sim is the cycle-level SM simulator the evaluation runs on —
// our stand-in for GPGPU-Sim v3.2.1 (§9). It executes kernels both
// functionally (registers hold real 32-lane values, so any register
// management bug corrupts results and is caught by the tests) and in
// timing: a two-level warp scheduler with a six-warp ready queue, dual
// issue, an in-order per-warp scoreboard, operand-collector bank
// conflicts over the four register banks, a latency/contention memory
// model, SIMT reconvergence stacks, CTA dispatch, GPU-shrink throttling
// and the spill fallback.
package sim

import (
	"errors"
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/flagcache"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/throttle"
)

// Config selects the hardware configuration under test.
type Config struct {
	// Mode is the register management policy.
	Mode rename.Mode
	// PhysRegs is the physical register count (1024 baseline, 512 for
	// GPU-shrink). Zero defaults to the baseline.
	PhysRegs int
	// PowerGating enables subarray gating (§8.2).
	PowerGating bool
	// WakeupLatency is the subarray wakeup penalty in cycles (Fig. 11b).
	WakeupLatency int
	// AllocPolicy selects in-bank allocation (SubarrayFirst or
	// LowestIndex ablation).
	AllocPolicy regfile.AllocPolicy
	// FlagCacheEntries sizes the release flag cache (Fig. 13). Zero means
	// the arch default (10 entries); a negative value disables the cache
	// entirely (the Dynamic-0 configuration).
	FlagCacheEntries int
	// ThrottlePolicy selects the §8.1 gating scheme (reservation-based
	// by default; throttle.PolicyWorstCase is the paper's verbatim rule,
	// kept for the ablation benchmarks).
	ThrottlePolicy throttle.Policy
	// Scheduler selects the warp-selection order within the ready queue.
	Scheduler SchedPolicy
	// RFCacheEntries sizes the register cache of rename.ModeRegCache
	// (0 = arch default, arch.RFCacheEntries lines); other modes ignore
	// it. Negative values are rejected.
	RFCacheEntries int
	// RFCacheWriteThrough selects write-through for the register cache;
	// the default write-back policy defers dirty values to eviction
	// (rename.ModeRegCache only).
	RFCacheWriteThrough bool
	// SpillRegs is how many of the kernel's highest-numbered architected
	// registers rename.ModeSMemSpill demotes to shared memory. 0 = auto:
	// demote just enough that the resident warps' RF demand fits
	// PhysRegs (never fewer than one RF-resident register per warp).
	// Other modes ignore it.
	SpillRegs int
	// RenameLatency adds extra cycles of dependent-use latency per
	// renamed operand access. The default (0) models the renaming stage
	// as fully pipelined: the paper conservatively assumes one extra
	// cycle and still measures 0.58% overhead, implying the stage is
	// hidden; our six-warp active set cannot hide added latency on tight
	// dependent chains, so the explicit +1 is kept as a sensitivity knob
	// (ablation benches quantify it).
	RenameLatency int
	// PoisonReleased overwrites released registers with a sentinel so
	// any use-after-release corrupts results instead of silently reading
	// stale values, and fails the run with an *InvariantError on a read
	// of an unmapped register — one released by a pir/pbr, or never
	// written (verification aid; see regfile.PoisonValue).
	PoisonReleased bool
	// SelfCheckEvery runs the renaming-table and register-file invariant
	// checks every N cycles, failing the run on the first violation
	// (verification aid; 0 disables).
	SelfCheckEvery int
	// MaxCycles aborts runs that exceed this cycle count (watchdog);
	// zero defaults to 50M.
	MaxCycles uint64
	// GPUParallel is ignored: RunGPU steps the 16 SMs on the calling
	// goroutine.
	//
	// Deprecated: it once set the device engine's compute-phase worker
	// count; it stays only so existing callers still compile.
	GPUParallel int
	// Cancel, when non-nil, aborts the run with ErrCancelled once the
	// channel is closed (checked every cancelCheckEvery cycles). The
	// jobs subsystem wires a context's Done channel here so wall-clock
	// deadlines stop a simulation promptly instead of leaking it.
	Cancel <-chan struct{}
	// CheckpointEvery, with a non-nil Checkpoint hook, emits a state
	// snapshot every N cycles (engine iterations in RunGPU). Snapshots
	// are taken at exact cycle boundaries and never change the simulated
	// result, so the checkpoint knobs are excluded from result cache
	// keys. 0 disables periodic checkpoints.
	CheckpointEvery uint64
	// Checkpoint receives each snapshot on the simulating goroutine.
	// The payload is deeply copied from live state: the hook may retain
	// or serialize it freely. A slow hook stalls simulated time, not
	// correctness. A run that aborts via Cancel also hands the hook a
	// final snapshot of where it stopped — the graceful-shutdown path: a
	// drain window cancels in-flight simulations and persists them so a
	// restart resumes instead of recomputing.
	Checkpoint func(*Checkpoint)
	// Profile enables sim-phase profiling: per-SM cycle attribution
	// (issue vs operand-collector vs memory vs commit stalls) and a
	// warp-state timeline, accumulated into Result.Profile. Off by
	// default; when off the cycle loop takes the unprofiled path and
	// the simulated result is byte-identical (profile_test.go pins
	// this). Unlike the checkpoint knobs, Profile DOES change the
	// result payload (the Profile field), so the jobs layer keys on it.
	Profile bool
	// FaultHook, when non-nil, is called at the named fault-injection
	// sites (FaultSite* constants) on the simulating goroutine. A
	// non-nil return injects a failure there: the run ends with a
	// wrapped error (FaultSiteMemAccept) or takes the
	// invariant-violation path (FaultSiteAlloc, -> *InvariantError).
	// The hook may also sleep (latency injection) or panic (crash
	// injection; the device engine turns a panic into an error naming
	// the SM). Production configs leave this nil — only the chaos tests
	// and regvd -faults thread internal/faultinject through it.
	FaultHook func(site string) error
	// Trace enables the register-liveness tracing used by Figs. 1-3.
	Trace TraceConfig
}

// SchedPolicy is the warp-selection order within the two-level
// scheduler's ready queue.
type SchedPolicy int

const (
	// SchedLRR (default) is loose round-robin: selection rotates across
	// the ready warps each cycle.
	SchedLRR SchedPolicy = iota
	// SchedGTO is greedy-then-oldest: keep issuing from the last warp
	// that issued; on a stall fall back to the oldest ready warp.
	SchedGTO
)

// TraceConfig controls optional tracing.
type TraceConfig struct {
	// SampleLiveEvery records a liveness sample every N cycles (0 = off).
	SampleLiveEvery int
	// TrackWarp/TrackRegs record mapping transitions of specific
	// architected registers of one warp slot (Figs. 2-3).
	TrackWarp int
	TrackRegs []isa.RegID
}

// LaunchSpec describes one kernel launch.
type LaunchSpec struct {
	Kernel *compiler.Kernel
	// GridCTAs is the total CTA count of the grid; the simulator models
	// one SM and runs GridCTAs/arch.NumSMs of them (at least one).
	GridCTAs int
	// ThreadsPerCTA is the CTA size (warpsPerCTA = ceil/32).
	ThreadsPerCTA int
	// ConcCTAs is the per-SM concurrency limit (Table 1).
	ConcCTAs int
	// Consts is the constant bank (kernel parameters).
	Consts []uint32
}

func (l *LaunchSpec) warpsPerCTA() int {
	return (l.ThreadsPerCTA + arch.WarpSize - 1) / arch.WarpSize
}

// LiveSample is one Fig. 1 data point.
type LiveSample struct {
	Cycle uint64
	// LiveRegs is the number of mapped (value-holding) physical registers.
	LiveRegs int
	// AllocatedRegs is what the conventional policy would hold: RegCount
	// for every resident warp.
	AllocatedRegs int
}

// RegEvent is one Fig. 2/3 mapping transition.
type RegEvent struct {
	Cycle  uint64
	Reg    isa.RegID
	Mapped bool
}

// Result is everything a run produces.
type Result struct {
	Cycles uint64
	// Instrs counts issued (non-metadata) instructions.
	Instrs uint64
	// DecodedPirs/DecodedPbrs are fetched-and-decoded metadata
	// instructions (Fig. 13's dynamic code increase).
	DecodedPirs, DecodedPbrs uint64
	// Stores is the final content of every written global-memory word —
	// the functional digest compared across configurations. The per-SM
	// results of a device run (GPUResult.PerSM) carry none: the device's
	// one copy of global memory is GPUResult.Stores.
	Stores map[uint32]uint32
	// MemRequests counts global/spill memory transactions.
	MemRequests uint64
	// Spills counts §8.1 fallback warp spills.
	Spills uint64

	RF       regfile.Stats
	Rename   rename.Stats
	Flag     flagcache.Stats
	Throttle struct{ Throttles, Blocked uint64 }

	// Stalls break down why issue attempts failed (per attempt, not per
	// cycle): scoreboard data hazards, throttle denials, bank-exhaustion
	// structural stalls, and memory-port/MSHR stalls.
	Stalls StallStats

	// PhysRegs is the physical register file size the run used.
	PhysRegs int
	// AvgResidentWarps is the mean number of resident warps per cycle
	// (occupancy).
	AvgResidentWarps float64
	// DivergentBranches counts conditional branches whose lanes split;
	// UniformBranches took one path warp-wide. MaxStackDepth is the
	// deepest SIMT reconvergence stack observed.
	DivergentBranches, UniformBranches uint64
	MaxStackDepth                      int
	// CompilerAllocatedRegs is RegCount x resident warps summed over CTA
	// residencies — the conventional allocation the paper's Fig. 10
	// normalizes against (peak concurrent demand).
	CompilerAllocatedRegs int
	// PeakLiveRegs is the maximum concurrently mapped register count.
	PeakLiveRegs int

	LiveSamples []LiveSample
	RegEvents   []RegEvent

	// Profile is the sim-phase profiling report (Config.Profile only;
	// nil otherwise, so unprofiled results — and their gob-encoded
	// checkpoints — are unchanged by the feature's existence).
	Profile *Profile
}

// StallStats break down failed issue attempts by cause.
type StallStats struct {
	Hazard   uint64 // scoreboard RAW/WAW/predicate
	Throttle uint64 // §8.1 governor denial
	Bank     uint64 // destination bank exhausted
	MemPort  uint64 // memory port or MSHRs full
}

// DynamicIncrease returns the Fig. 13 dynamic code growth: decoded
// metadata instructions relative to issued instructions.
func (r *Result) DynamicIncrease() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.DecodedPirs+r.DecodedPbrs) / float64(r.Instrs)
}

// AllocationReduction returns the Fig. 10 metric: the fraction of
// conventionally-allocated registers the virtualized design never needed.
func (r *Result) AllocationReduction() float64 {
	if r.CompilerAllocatedRegs == 0 {
		return 0
	}
	red := float64(r.CompilerAllocatedRegs-r.PeakLiveRegs) / float64(r.CompilerAllocatedRegs)
	if red < 0 {
		return 0
	}
	return red
}

// Run simulates the launch to completion on one SM.
func Run(cfg Config, spec LaunchSpec) (*Result, error) {
	sm, err := newSM(cfg, spec)
	if err != nil {
		return nil, err
	}
	return sm.run()
}

// RunSequence executes kernels back to back, the way multi-phase
// applications launch (e.g. a partial-sum kernel followed by a final
// reduction): global memory persists across launches so later kernels
// read earlier kernels' output; shared and spill memory are scratch and
// reset at each kernel boundary, and the release flag cache starts cold
// per kernel (§7.2: it is indexed by PC, which a kernel switch
// invalidates). One Result is returned per launch.
func RunSequence(cfg Config, specs ...LaunchSpec) ([]*Result, error) {
	return runSequence(cfg, specs, nil)
}

// runSequence is RunSequence, calling prepare (when non-nil) on each
// kernel's SM before it runs.
func runSequence(cfg Config, specs []LaunchSpec, prepare func(*SM)) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: empty kernel sequence")
	}
	var mem *memSys
	out := make([]*Result, 0, len(specs))
	for i, spec := range specs {
		sm, err := newSM(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("sim: kernel %d: %w", i, err)
		}
		if mem != nil {
			// Global memory carries over; the previous kernel's Result
			// holds a map of it made when that kernel ended.
			mem.resetScratch()
			sm.mem = mem
		}
		if prepare != nil {
			prepare(sm)
		}
		res, err := sm.run()
		if err != nil {
			return nil, fmt.Errorf("sim: kernel %d: %w", i, err)
		}
		mem = sm.mem.(*memSys) // single-SM runs always use the direct port
		out = append(out, res)
	}
	return out, nil
}

// deadlockWindow is how many cycles of SM-wide inactivity trigger a
// deadlock error.
const deadlockWindow = 200000

// ErrDeadlock is the sentinel inside the error a run returns when no
// warp makes progress for deadlockWindow cycles — typically a
// register-management discipline that cannot fit the workload into the
// configured register file (launch-pinned backends at small sizes).
var ErrDeadlock = errors.New("sim: deadlock")

// IsDeadlock reports whether err is (or wraps) a simulation deadlock.
func IsDeadlock(err error) bool { return errors.Is(err, ErrDeadlock) }

// cancelCheckEvery is how often (in cycles) a run polls Config.Cancel.
// At ~1M simulated cycles/s a 4096-cycle granularity keeps cancellation
// latency in the low milliseconds while the poll stays off the profile.
const cancelCheckEvery = 4096

// ErrCancelled is returned (wrapped, with the abort cycle) when a run
// stops because Config.Cancel closed. Match it with errors.Is.
var ErrCancelled = errors.New("sim: run cancelled")

// MaxPhysRegs bounds Config.PhysRegs at 16 times the paper's file. A
// physical register number is an int16 (regfile.PhysReg), and mode
// smemspill numbers its demoted registers upward from the file size,
// at most MaxWarpsPerSM × MaxRegsPerThread (3,024) of them; at this
// bound they still fit.
const MaxPhysRegs = 16 * arch.NumPhysRegs

func validate(cfg *Config, spec *LaunchSpec) error {
	if spec.Kernel == nil || spec.Kernel.Prog == nil {
		return fmt.Errorf("sim: nil kernel")
	}
	if err := spec.Kernel.Prog.Validate(); err != nil {
		return err
	}
	if spec.GridCTAs <= 0 || spec.ThreadsPerCTA <= 0 || spec.ThreadsPerCTA > 1024 {
		return fmt.Errorf("sim: bad grid %dx%d", spec.GridCTAs, spec.ThreadsPerCTA)
	}
	if spec.ConcCTAs <= 0 || spec.ConcCTAs > arch.MaxCTAsPerSM {
		return fmt.Errorf("sim: ConcCTAs %d out of range", spec.ConcCTAs)
	}
	if spec.warpsPerCTA()*spec.ConcCTAs > arch.MaxWarpsPerSM {
		return fmt.Errorf("sim: %d warps/CTA x %d CTAs exceeds %d warp slots",
			spec.warpsPerCTA(), spec.ConcCTAs, arch.MaxWarpsPerSM)
	}
	if cfg.PhysRegs == 0 {
		cfg.PhysRegs = arch.NumPhysRegs
	}
	if cfg.PhysRegs > MaxPhysRegs {
		return fmt.Errorf("sim: PhysRegs %d above the limit of %d", cfg.PhysRegs, MaxPhysRegs)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	if cfg.FlagCacheEntries == 0 {
		cfg.FlagCacheEntries = arch.FlagCacheEntries
	} else if cfg.FlagCacheEntries < 0 {
		cfg.FlagCacheEntries = 0
	}
	if cfg.RFCacheEntries < 0 {
		return fmt.Errorf("sim: RFCacheEntries %d must be non-negative", cfg.RFCacheEntries)
	}
	if cfg.Mode == rename.ModeRegCache && cfg.RFCacheEntries == 0 {
		cfg.RFCacheEntries = arch.RFCacheEntries
	}
	if cfg.SpillRegs < 0 {
		return fmt.Errorf("sim: SpillRegs %d must be non-negative", cfg.SpillRegs)
	}
	if cfg.Mode == rename.ModeSMemSpill {
		rc := spec.Kernel.Prog.RegCount
		spill := cfg.SpillRegs
		if spill == 0 {
			// Auto-fit: keep per warp what an even split of the file
			// across the full resident-warp complement affords, rounded
			// down to a bank multiple so per-bank demand divides evenly.
			residents := spec.warpsPerCTA() * spec.ConcCTAs
			keep := cfg.PhysRegs / residents
			keep -= keep % arch.NumBanks
			if keep < rc {
				spill = rc - keep
			}
		}
		if spill > rc-1 {
			spill = rc - 1 // at least r0 stays RF-resident
		}
		cfg.SpillRegs = spill
	}
	return nil
}
