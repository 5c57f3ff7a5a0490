package experiments

import (
	"regvirt/internal/arch"
	"regvirt/internal/power"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// Fig12Config names the three design points of §9.2's energy comparison.
type Fig12Config int

// Fig. 12 configurations.
const (
	// Cfg128PG: full-size register file, renaming, subarray power gating.
	Cfg128PG Fig12Config = iota
	// Cfg64: half-size register file, renaming, no gating.
	Cfg64
	// Cfg64PG: half-size register file, renaming, gating (GPU-shrink).
	Cfg64PG
)

var fig12Names = [...]string{"128KB RF w/ PG", "64KB (50%) RF", "64KB (50%) RF w/ PG"}

func (c Fig12Config) String() string { return fig12Names[c] }

// Fig12Row is the energy breakdown of one workload under one
// configuration, normalized to the 128 KB no-renaming baseline's total.
type Fig12Row struct {
	App    string
	Config Fig12Config
	// Components, each normalized to the baseline total.
	Dynamic, Static, RenameTable, FlagInstr float64
}

// Total returns the normalized total energy.
func (r Fig12Row) Total() float64 {
	return r.Dynamic + r.Static + r.RenameTable + r.FlagInstr
}

// fig12Cfg maps the design point to a simulator configuration.
func fig12Cfg(c Fig12Config) sim.Config {
	switch c {
	case Cfg128PG:
		return virtGatedCfg()
	case Cfg64:
		return shrinkCfg()
	default:
		return shrinkGatedCfg()
	}
}

// Fig12 computes the register-file energy breakdown of the three §9.2
// configurations for every workload, plus per-configuration averages
// (App == "AVG").
func Fig12(r *Runner) ([]Fig12Row, error) {
	model := power.NewModel(power.DefaultParams())
	var out []Fig12Row
	sums := map[Fig12Config]*Fig12Row{}
	for _, w := range workloads.All() {
		base, err := r.Run(w, KernelBaseline, baselineCfg())
		if err != nil {
			return nil, err
		}
		baseEnergy := model.Breakdown(power.CountersOf(base, 0)).TotalPJ()
		for _, c := range []Fig12Config{Cfg128PG, Cfg64, Cfg64PG} {
			res, err := r.Run(w, KernelVirt, fig12Cfg(c))
			if err != nil {
				return nil, err
			}
			k, err := r.Kernel(w, KernelVirt)
			if err != nil {
				return nil, err
			}
			tableBytes := tableBytesFor(k.Prog.RegCount, k.Exempt, w.ResidentWarps())
			e := model.Breakdown(power.CountersOf(res, tableBytes))
			row := Fig12Row{
				App: w.Name, Config: c,
				Dynamic:     e.DynamicPJ / baseEnergy,
				Static:      e.StaticPJ / baseEnergy,
				RenameTable: e.RenameTablePJ / baseEnergy,
				FlagInstr:   e.FlagInstrPJ / baseEnergy,
			}
			out = append(out, row)
			if sums[c] == nil {
				sums[c] = &Fig12Row{App: "AVG", Config: c}
			}
			sums[c].Dynamic += row.Dynamic
			sums[c].Static += row.Static
			sums[c].RenameTable += row.RenameTable
			sums[c].FlagInstr += row.FlagInstr
		}
	}
	n := float64(len(workloads.All()))
	for _, c := range []Fig12Config{Cfg128PG, Cfg64, Cfg64PG} {
		avg := sums[c]
		avg.Dynamic /= n
		avg.Static /= n
		avg.RenameTable /= n
		avg.FlagInstr /= n
		out = append(out, *avg)
	}
	return out, nil
}

func tableBytesFor(regCount, exempt, warps int) int {
	regs := regCount - exempt
	if regs < 0 {
		regs = 0
	}
	b := (arch.RenameEntryBits*warps*regs + 7) / 8
	if b > arch.RenameTableBudgetBytes {
		b = arch.RenameTableBudgetBytes
	}
	return b
}

// Fig13Row is one workload's code growth: static increase from metadata
// instructions, and the dynamic increase for each flag-cache size.
type Fig13Row struct {
	App       string
	StaticPct float64
	// DynamicPct maps flag-cache entry count to dynamic code increase (%).
	DynamicPct map[int]float64
}

// Fig13CacheSizes are the swept release-flag-cache sizes.
var Fig13CacheSizes = []int{0, 1, 2, 5, 10}

// Fig13 measures static and dynamic code increase (§9.3).
func Fig13(r *Runner) ([]Fig13Row, error) {
	var out []Fig13Row
	avg := Fig13Row{App: "AVG", DynamicPct: map[int]float64{}}
	for _, w := range workloads.All() {
		k, err := r.Kernel(w, KernelVirt)
		if err != nil {
			return nil, err
		}
		row := Fig13Row{
			App:        w.Name,
			StaticPct:  k.StaticIncrease() * 100,
			DynamicPct: map[int]float64{},
		}
		for _, entries := range Fig13CacheSizes {
			cfg := virtCfg()
			cfg.FlagCacheEntries = entries
			if entries == 0 {
				cfg.FlagCacheEntries = -1 // explicit Dynamic-0: no cache
			}
			res, err := r.Run(w, KernelVirt, cfg)
			if err != nil {
				return nil, err
			}
			row.DynamicPct[entries] = res.DynamicIncrease() * 100
		}
		avg.StaticPct += row.StaticPct
		for e, v := range row.DynamicPct {
			avg.DynamicPct[e] += v
		}
		out = append(out, row)
	}
	n := float64(len(workloads.All()))
	avg.StaticPct /= n
	for e := range avg.DynamicPct {
		avg.DynamicPct[e] /= n
	}
	out = append(out, avg)
	return out, nil
}

// Fig14Row reports the renaming-table sizing of one workload: the
// unconstrained table size, the exempt-register count under the 1 KB
// budget, and the register saving of the constrained design normalized
// to the unconstrained one.
type Fig14Row struct {
	App                string
	UnconstrainedBytes int
	ExemptRegs         int
	NormalizedSaving   float64
}

// Fig14 measures the impact of the 1 KB renaming-table budget (§9.4).
func Fig14(r *Runner) ([]Fig14Row, error) {
	var out []Fig14Row
	for _, w := range workloads.All() {
		constrained, err := r.Kernel(w, KernelVirt)
		if err != nil {
			return nil, err
		}
		resC, err := r.Run(w, KernelVirt, virtCfg())
		if err != nil {
			return nil, err
		}
		resU, err := r.Run(w, KernelVirtUncon, virtCfg())
		if err != nil {
			return nil, err
		}
		norm := 1.0
		if u := resU.AllocationReduction(); u > 0 {
			norm = resC.AllocationReduction() / u
			if norm > 1 {
				norm = 1
			}
		}
		out = append(out, Fig14Row{
			App:                w.Name,
			UnconstrainedBytes: constrained.UnconstrainedTableBytes,
			ExemptRegs:         constrained.Exempt,
			NormalizedSaving:   norm,
		})
	}
	return out, nil
}

// Fig15Row compares hardware-only renaming [46] against the
// compiler-driven approach, both normalized to the compiler approach.
type Fig15Row struct {
	App string
	// AllocReductionRatio is hw-only allocation reduction / ours.
	AllocReductionRatio float64
	// StaticPowerRatio is hw-only static power *reduction* / ours (both
	// with power gating on the full-size file).
	StaticPowerRatio float64
}

// Fig15 runs the hardware-only comparison (§9.5).
func Fig15(r *Runner) ([]Fig15Row, error) {
	var out []Fig15Row
	var sumA, sumS float64
	for _, w := range workloads.All() {
		ours, err := r.Run(w, KernelVirt, virtCfg())
		if err != nil {
			return nil, err
		}
		hw, err := r.Run(w, KernelBaseline, hwOnlyCfg())
		if err != nil {
			return nil, err
		}
		row := Fig15Row{App: w.Name}
		if o := ours.AllocationReduction(); o > 0 {
			row.AllocReductionRatio = hw.AllocationReduction() / o
		}
		// Static power saving with gating: proportional to the gated-off
		// subarray fraction.
		oursG, err := r.Run(w, KernelVirt, virtGatedCfg())
		if err != nil {
			return nil, err
		}
		hwCfg := hwOnlyCfg()
		hwCfg.PowerGating = true
		hwCfg.WakeupLatency = 1
		hwG, err := r.Run(w, KernelBaseline, hwCfg)
		if err != nil {
			return nil, err
		}
		oursSave := 1 - awakeFrac(oursG)
		hwSave := 1 - awakeFrac(hwG)
		if oursSave > 0 {
			row.StaticPowerRatio = hwSave / oursSave
		}
		sumA += row.AllocReductionRatio
		sumS += row.StaticPowerRatio
		out = append(out, row)
	}
	n := float64(len(workloads.All()))
	out = append(out, Fig15Row{App: "AVG", AllocReductionRatio: sumA / n, StaticPowerRatio: sumS / n})
	return out, nil
}

func awakeFrac(res *sim.Result) float64 {
	if res.RF.TotalSubarrayCyc == 0 {
		return 1
	}
	return float64(res.RF.AwakeSubarrayCyc) / float64(res.RF.TotalSubarrayCyc)
}
