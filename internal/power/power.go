// Package power models register-file energy the way the paper does with
// GPUWattch/CACTI (§9, Table 2): event-based dynamic energy from access
// counters, leakage from (gated) subarray-cycles, renaming-table and
// flag-instruction overheads, CACTI-like size scaling for
// under-provisioned register files (Fig. 7), and the technology table
// behind Fig. 9.
package power

import (
	"fmt"
	"math"

	"regvirt/internal/arch"
	"regvirt/internal/flagcache"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
)

// Params are the 40 nm energy parameters. The Table 2 values come from
// CACTI v5.3; the fetch/decode and flag-cache numbers are our estimates
// (documented in DESIGN.md) standing in for GPUWattch's pipeline energy.
type Params struct {
	// RenameAccessPJ is one renaming-table access (Table 2: 1.14 pJ).
	RenameAccessPJ float64
	// RenameLeakMW is leakage per renaming-table bank (Table 2: 0.27 mW,
	// four banks).
	RenameLeakMW float64
	// BankAccessPJ is one warp-operand register-file access
	// (Table 2: 4.68 pJ per 4 KB bank access).
	BankAccessPJ float64
	// BankLeakMW is leakage of one 4 KB register-file unit
	// (Table 2: 2.8 mW); the 128 KB file holds 32 such units.
	BankLeakMW float64
	// BankUnitBytes is the CACTI bank granularity of Table 2.
	BankUnitBytes int
	// MetaFetchDecodePJ is the front-end cost of fetching and decoding
	// one metadata instruction on a flag-cache miss.
	MetaFetchDecodePJ float64
	// FlagCacheAccessPJ is one probe of the 68 B release-flag cache.
	FlagCacheAccessPJ float64
	// DynScaleExp is the CACTI-like exponent relating per-access dynamic
	// energy to array size: E(size) = E0 * ratio^DynScaleExp. The value
	// is calibrated so halving the file cuts dynamic power 20 % (Fig. 7).
	DynScaleExp float64
}

// DefaultParams returns the 40 nm parameter set.
func DefaultParams() Params {
	return Params{
		RenameAccessPJ:    1.14,
		RenameLeakMW:      0.27,
		BankAccessPJ:      4.68,
		BankLeakMW:        2.8,
		BankUnitBytes:     4 * 1024,
		MetaFetchDecodePJ: 15.0,
		FlagCacheAccessPJ: 0.05,
		DynScaleExp:       math.Log(0.8) / math.Log(0.5), // ≈ 0.3219
	}
}

// Energy is a register-file energy breakdown in picojoules, the four
// stacked components of Fig. 12.
type Energy struct {
	DynamicPJ     float64
	StaticPJ      float64
	RenameTablePJ float64
	FlagInstrPJ   float64
}

// TotalPJ sums the components.
func (e Energy) TotalPJ() float64 {
	return e.DynamicPJ + e.StaticPJ + e.RenameTablePJ + e.FlagInstrPJ
}

// Counters carries the simulator's raw event counts into the model.
type Counters struct {
	Cycles      uint64
	RF          regfile.Stats
	Rename      rename.Stats
	Flag        flagcache.Stats
	DecodedPirs uint64
	DecodedPbrs uint64
	// PhysRegs is the physical register count (scales array size).
	PhysRegs int
	// RenameTableBytes is the mapping structure footprint (0 disables the
	// rename component, e.g. for the baseline).
	RenameTableBytes int
}

// CountersOf takes a run's event counts into the model, with the
// mapping structure's footprint (0 for a run that keeps no rename
// table).
func CountersOf(res *sim.Result, renameTableBytes int) Counters {
	return Counters{
		Cycles: res.Cycles, RF: res.RF, Rename: res.Rename, Flag: res.Flag,
		DecodedPirs: res.DecodedPirs, DecodedPbrs: res.DecodedPbrs,
		PhysRegs: res.PhysRegs, RenameTableBytes: renameTableBytes,
	}
}

// Model evaluates energy from counters.
type Model struct {
	P Params
}

// NewModel returns a model over the given parameters.
func NewModel(p Params) *Model { return &Model{P: p} }

// sizeRatio is the register file size relative to the 128 KB baseline.
func (c Counters) sizeRatio() float64 {
	return float64(c.PhysRegs) / float64(arch.NumPhysRegs)
}

// leakPJPerCycleFull returns full-file leakage energy per cycle at the
// given size ratio: leakage scales linearly with capacity.
func (m *Model) leakPJPerCycleFull(ratio float64) float64 {
	units := float64(arch.RegFileBytes) / float64(m.P.BankUnitBytes) * ratio
	mw := units * m.P.BankLeakMW
	return mw * arch.CyclePeriodNs // mW * ns = pJ
}

// Breakdown computes the Fig. 12 energy components.
func (m *Model) Breakdown(c Counters) Energy {
	ratio := c.sizeRatio()
	accessPJ := m.P.BankAccessPJ * math.Pow(ratio, m.P.DynScaleExp)
	var e Energy
	e.DynamicPJ = float64(c.RF.Reads+c.RF.Writes) * accessPJ

	// Leakage: awake subarray-cycles over total subarray-cycles gives the
	// gated fraction of the (size-scaled) full-file leakage.
	if c.RF.TotalSubarrayCyc > 0 {
		awakeFrac := float64(c.RF.AwakeSubarrayCyc) / float64(c.RF.TotalSubarrayCyc)
		e.StaticPJ = float64(c.Cycles) * m.leakPJPerCycleFull(ratio) * awakeFrac
	}

	if c.RenameTableBytes > 0 {
		e.RenameTablePJ = float64(c.Rename.Lookups) * m.P.RenameAccessPJ
		// Leakage scaled by table footprint relative to the 1 KB design
		// that Table 2 characterizes.
		tblRatio := float64(c.RenameTableBytes) / float64(arch.RenameTableBudgetBytes)
		e.RenameTablePJ += float64(c.Cycles) * float64(arch.NumBanks) * m.P.RenameLeakMW * arch.CyclePeriodNs * tblRatio
	}

	e.FlagInstrPJ = float64(c.DecodedPirs+c.DecodedPbrs)*m.P.MetaFetchDecodePJ +
		float64(c.Flag.Probes+c.Flag.Insertions)*m.P.FlagCacheAccessPJ
	return e
}

// SizePoint is one point of the Fig. 7 curve.
type SizePoint struct {
	ReductionPct float64 // register file size reduction (X axis)
	DynPct       float64 // dynamic power, % of 128 KB baseline
	LkgPct       float64 // leakage power, % of baseline
	TotalPct     float64 // total power, % of baseline
}

// Fraction of register-file power that is dynamic at full size; with
// leakage the remainder, halving the file then yields the paper's -20 %
// dynamic / -30 % total endpoints.
const dynFraction = 2.0 / 3.0

// SizeCurve reproduces Fig. 7: register file power versus size
// reduction, normalized to the 128 KB baseline.
func (m *Model) SizeCurve(reductions []float64) []SizePoint {
	out := make([]SizePoint, 0, len(reductions))
	for _, red := range reductions {
		ratio := 1 - red/100
		dyn := math.Pow(ratio, m.P.DynScaleExp)
		lkg := ratio
		out = append(out, SizePoint{
			ReductionPct: red,
			DynPct:       dyn * 100,
			LkgPct:       lkg * 100,
			TotalPct:     (dynFraction*dyn + (1-dynFraction)*lkg) * 100,
		})
	}
	return out
}

// TechNode is one bar of Fig. 9: the register-file leakage power
// fraction normalized to 40 nm planar. The series encodes the paper's
// narrative: planar scaling drives leakage up steeply toward 22 nm; the
// 22 nm FinFET transition resets it near the 40 nm baseline; FinFET
// nodes then climb again.
type TechNode struct {
	Name    string
	FinFET  bool
	Leakage float64 // normalized to 40 nm planar
}

// TechNodes returns the Fig. 9 series.
func TechNodes() []TechNode {
	return []TechNode{
		{Name: "40nm P", Leakage: 1.00},
		{Name: "32nm P", Leakage: 1.13},
		{Name: "22nm P", Leakage: 1.38},
		{Name: "22nm F", FinFET: true, Leakage: 1.02},
		{Name: "16nm F", FinFET: true, Leakage: 1.15},
		{Name: "10nm F", FinFET: true, Leakage: 1.28},
	}
}

// RegFileShareOfGPU is the register file's fraction of total GPU power
// (§8.2: "15% from our estimation and as shown in [31, 33]").
const RegFileShareOfGPU = 0.15

// GPULevelSavingPct converts a register-file energy saving fraction into
// the chip-level saving it implies at the paper's 15% share.
func GPULevelSavingPct(rfSavingFraction float64) float64 {
	return rfSavingFraction * RegFileShareOfGPU * 100
}

// String renders an energy breakdown.
func (e Energy) String() string {
	return fmt.Sprintf("dyn=%.1fpJ static=%.1fpJ rename=%.1fpJ flag=%.1fpJ total=%.1fpJ",
		e.DynamicPJ, e.StaticPJ, e.RenameTablePJ, e.FlagInstrPJ, e.TotalPJ())
}
