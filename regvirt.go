// Package regvirt is a Go reproduction of "GPU Register File
// Virtualization" (Jeon, Ravi, Kim, Annavaram — MICRO-48, 2015): a
// compiler-and-microarchitecture technique that releases dead registers
// eagerly using compiler lifetime analysis, shares physical registers
// across warps through renaming, and runs applications on a GPU whose
// physical register file is half the architected size (GPU-shrink) with
// negligible slowdown.
//
// The package is a facade over the full system:
//
//   - ParseKernel / Compile — the PTX-like assembly front end and the
//     §6 compiler support (SIMT liveness, pir/pbr release flags, exempt
//     register selection under the renaming-table budget).
//   - Run — the cycle-level SM simulator (§9's GPGPU-Sim stand-in) with
//     the renaming table, release flag cache, subarray power gating and
//     GPU-shrink throttling.
//   - Workloads — the 16 synthetic benchmarks mirroring the paper's
//     Table 1.
//   - EnergyModel — the GPUWattch/CACTI-like power model (Table 2).
//
// A quickstart lives in examples/quickstart; every table and figure of
// the paper regenerates via cmd/experiments or the benchmarks in
// bench_test.go.
package regvirt

import (
	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/power"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/throttle"
	"regvirt/internal/workloads"
)

// Program is an assembled kernel.
type Program = isa.Program

// ParseKernel assembles kernel source text (see the isa package for the
// grammar; examples/quickstart shows a complete kernel).
func ParseKernel(src string) (*Program, error) { return isa.Parse(src) }

// CompileOptions control compilation: renaming-table budget, resident
// warps, and the NoFlags baseline switch.
type CompileOptions = compiler.Options

// Kernel is a compiled kernel with its release metadata and statistics.
type Kernel = compiler.Kernel

// Compile runs the paper's compiler support (§6) over a program.
func Compile(p *Program, opts CompileOptions) (*Kernel, error) {
	return compiler.Compile(p, opts)
}

// SpillTo is the Fig. 11a "compiler spill" baseline: recompile to fit a
// smaller architected register budget using spill/fill code.
func SpillTo(p *Program, maxRegs int) (*Program, error) {
	return compiler.SpillTo(p, maxRegs)
}

// Mode selects the register management policy.
type Mode = rename.Mode

// Register management modes.
const (
	// ModeBaseline is the conventional allocate-at-launch policy.
	ModeBaseline = rename.ModeBaseline
	// ModeHWOnly is the hardware-only renaming of the NVIDIA patent [46].
	ModeHWOnly = rename.ModeHWOnly
	// ModeCompiler is the paper's compiler-driven virtualization.
	ModeCompiler = rename.ModeCompiler
	// ModeRegCache fronts the baseline register file with a small
	// compiler-assisted register cache (hit/miss accounting, write-back
	// or write-through; Config.RFCacheEntries sizes it).
	ModeRegCache = rename.ModeRegCache
	// ModeSMemSpill demotes high-numbered registers to shared memory,
	// RegDem-style (Config.SpillRegs, 0 = auto-fit).
	ModeSMemSpill = rename.ModeSMemSpill
)

// ParseMode resolves a register-management mode name; its error lists
// the valid modes (ModeNames).
func ParseMode(s string) (Mode, error) { return rename.ParseMode(s) }

// ModeNames lists the canonical mode spellings.
func ModeNames() []string { return rename.ModeNames() }

// Config selects the simulated hardware configuration.
type Config = sim.Config

// LaunchSpec describes a kernel launch (grid, CTA size, constants).
type LaunchSpec = sim.LaunchSpec

// Result carries everything a simulation produces: cycles, the
// functional store digest, and every counter the power model needs.
type Result = sim.Result

// TraceConfig enables the register-liveness traces behind Figs. 1-3.
type TraceConfig = sim.TraceConfig

// SchedPolicy is the ready-queue warp-selection order.
type SchedPolicy = sim.SchedPolicy

// Scheduler policies.
const (
	// SchedLRR is loose round-robin (default).
	SchedLRR = sim.SchedLRR
	// SchedGTO is greedy-then-oldest.
	SchedGTO = sim.SchedGTO
)

// ThrottlePolicy selects the §8.1 gating scheme.
type ThrottlePolicy = throttle.Policy

// Throttle policies.
const (
	// PolicyReservation is the default reactive drain-CTA priority.
	PolicyReservation = throttle.PolicyReservation
	// PolicyWorstCase is the paper's verbatim worst-case-balance rule.
	PolicyWorstCase = throttle.PolicyWorstCase
)

// AllocPolicy selects the in-bank physical register allocation order.
type AllocPolicy = regfile.AllocPolicy

// Allocation policies.
const (
	// SubarrayFirst consolidates live registers for power gating (§8.2).
	SubarrayFirst = regfile.SubarrayFirst
	// LowestIndex is the gating-oblivious ablation.
	LowestIndex = regfile.LowestIndex
	// Spread scatters allocations across subarrays (gating-adversarial).
	Spread = regfile.Spread
)

// Run simulates a launch on one SM.
func Run(cfg Config, spec LaunchSpec) (*Result, error) { return sim.Run(cfg, spec) }

// RunSequence executes kernels back to back with global memory
// persisting across launches (multi-phase applications).
func RunSequence(cfg Config, specs ...LaunchSpec) ([]*Result, error) {
	return sim.RunSequence(cfg, specs...)
}

// GPUResult aggregates a whole-device simulation.
type GPUResult = sim.GPUResult

// RunGPU simulates the full 16-SM device: a shared CTA dispatcher,
// shared global memory, and a device-wide DRAM bandwidth limit. Run is
// the fast single-SM path the evaluation uses; RunGPU is the fidelity
// path for whole-grid runs. The device's final global memory is
// GPUResult.Stores; the per-SM results in GPUResult.PerSM carry no
// Stores of their own.
func RunGPU(cfg Config, spec LaunchSpec) (*GPUResult, error) {
	return sim.RunGPU(cfg, spec)
}

// Workload is one Table 1 benchmark.
type Workload = workloads.Workload

// Workloads returns the 16-benchmark suite in Table 1 order.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName finds a workload ("MatrixMul", "BFS", ...).
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// EnergyParams are the Table 2 energy parameters.
type EnergyParams = power.Params

// Energy is a register-file energy breakdown (Fig. 12's components).
type Energy = power.Energy

// EnergyCounters feed simulation counters into the power model.
type EnergyCounters = power.Counters

// EnergyModel evaluates register-file energy the way the paper uses
// GPUWattch (§9.2).
type EnergyModel = power.Model

// DefaultEnergyParams returns the paper's Table 2 values (40 nm).
func DefaultEnergyParams() EnergyParams { return power.DefaultParams() }

// NewEnergyModel builds a model over the given parameters.
func NewEnergyModel(p EnergyParams) *EnergyModel { return power.NewModel(p) }

// EnergyOf is a convenience: evaluate the default model over a result.
// renameTableBytes is the mapping-structure footprint (0 for baselines).
func EnergyOf(res *Result, renameTableBytes int) Energy {
	m := power.NewModel(power.DefaultParams())
	return m.Breakdown(power.Counters{
		Cycles:           res.Cycles,
		RF:               res.RF,
		Rename:           res.Rename,
		Flag:             res.Flag,
		DecodedPirs:      res.DecodedPirs,
		DecodedPbrs:      res.DecodedPbrs,
		PhysRegs:         res.PhysRegs,
		RenameTableBytes: renameTableBytes,
	})
}
