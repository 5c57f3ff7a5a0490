package compiler

import (
	"cmp"
	"math/bits"
	"slices"

	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// RegStat summarizes one architected register's estimated behaviour,
// computed statically as the paper prescribes (§6.2): value lifetime is
// the instruction distance between a write and the next release point in
// code order, and registers with more value instances are poorer renaming
// candidates.
type RegStat struct {
	Reg isa.RegID
	// Defs is the number of static definitions (value instances).
	Defs int
	// AvgLifetime is the mean static distance (instructions) from each
	// definition to the next release point.
	AvgLifetime float64
	// LongLived reports that the register has no release point at all:
	// it stays mapped for the kernel's whole duration.
	LongLived bool
}

// registerStats estimates per-register value lifetimes against a release
// plan computed with every register considered renameable. used is the
// program's UsedRegs. One backward sweep pairs each definition with the
// next release point of its register.
func registerStats(li *liveness.Info, plan *releasePlan, used []isa.RegID) []RegStat {
	prog := li.G.Prog
	n := len(prog.Instrs)
	var (
		next  [isa.RZ + 1]int // next release pc after the sweep position, -1 for none
		total [isa.RZ + 1]int // summed lifetimes of the register's definitions
		defs  [isa.RZ + 1]int
	)
	for r := range next {
		next[r] = -1
	}
	for pc := n - 1; pc >= 0; pc-- {
		if d, ok := prog.Instrs[pc].DstReg(); ok {
			defs[d]++
			if next[d] < 0 {
				// Value written after the last release point: lives to
				// the end of the program.
				total[d] += n - pc
			} else {
				total[d] += next[d] - pc
			}
		}
		for rel := uint64(plan.released[pc]); rel != 0; rel &= rel - 1 {
			next[bits.TrailingZeros64(rel)] = pc
		}
	}
	out := make([]RegStat, 0, len(used))
	for _, r := range used {
		st := RegStat{Reg: r, Defs: defs[r]}
		switch {
		case next[r] < 0:
			st.LongLived = true
			st.AvgLifetime = float64(n)
		case defs[r] == 0:
			// Read-only input register (defined by the launcher):
			// lifetime runs from program start to its first release.
			st.AvgLifetime = float64(next[r] + 1)
		default:
			st.AvgLifetime = float64(total[r]) / float64(defs[r])
		}
		out = append(out, st)
	}
	return out
}

// selectRenameable picks the registers that benefit most from renaming
// under a table budget of capacity registers per warp (§6.2). Preference
// order: short average lifetime first, then fewer value instances; the
// longest-lived registers are exempted first. If capacity covers every
// register, all are selected.
func selectRenameable(stats []RegStat, capacity int) (renameable liveness.RegSet, exempt []isa.RegID) {
	if capacity < 0 {
		capacity = 0
	}
	order := append([]RegStat(nil), stats...)
	// The comparison is a total order (registers are distinct), so any
	// correct sort yields the same selection.
	slices.SortFunc(order, func(a, b RegStat) int {
		if a.LongLived != b.LongLived {
			if a.LongLived {
				return 1
			}
			return -1
		}
		if c := cmp.Compare(a.AvgLifetime, b.AvgLifetime); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Defs, b.Defs); c != 0 {
			return c
		}
		return cmp.Compare(a.Reg, b.Reg)
	})
	if len(order) > capacity {
		exempt = make([]isa.RegID, 0, len(order)-capacity)
	}
	for i, st := range order {
		if i < capacity {
			renameable = renameable.Add(st.Reg)
		} else {
			exempt = append(exempt, st.Reg)
		}
	}
	slices.Sort(exempt)
	return renameable, exempt
}
