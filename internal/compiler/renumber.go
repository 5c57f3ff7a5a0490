package compiler

import (
	"cmp"
	"fmt"
	"slices"

	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// regPerm is a register permutation: perm[old] = new. Registers the
// permutation does not move, RZ among them, map to themselves. It spans
// every RegID value, because renumber also maps operand slots that
// Program.Validate does not check (sources past NSrc, the destination
// of an instruction that writes none).
type regPerm [256]isa.RegID

// identityPerm returns the permutation that moves nothing.
func identityPerm() regPerm {
	var perm regPerm
	for r := range perm {
		perm[r] = isa.RegID(r)
	}
	return perm
}

// renumber applies a register permutation to every operand of the program
// in place. RZ is never remapped.
func renumber(p *isa.Program, perm *regPerm) {
	for _, in := range p.Instrs {
		if in.Dst.Kind == isa.OpdReg {
			in.Dst.Reg = perm[in.Dst.Reg]
		}
		for i := 0; i < isa.MaxSrcOperands; i++ {
			if in.Srcs[i].Kind == isa.OpdReg {
				in.Srcs[i].Reg = perm[in.Srcs[i].Reg]
			}
		}
		for i, r := range in.PbrRegs {
			in.PbrRegs[i] = perm[r]
		}
	}
}

// exemptPermutation builds the permutation that compacts the exempt
// registers onto the lowest ids (§6.2: "renaming-exempted registers are
// assigned the lowest N register ids") and the renameable ones onto the
// ids above them. Within each class, ids are assigned bank-aware: a
// register's id determines its bank (id mod 4, preserved by renaming,
// §7.1), so the pass spreads expected register-file *occupancy* evenly —
// long-lived registers are dealt round-robin across banks by descending
// liveness weight. Clustering them in one bank would both raise operand
// collector conflicts and starve that bank's allocator under GPU-shrink.
func exemptPermutation(used []isa.RegID, exempt []isa.RegID, stats []RegStat) (regPerm, error) {
	perm := identityPerm()
	var isExempt liveness.RegSet
	for _, r := range exempt {
		if r == isa.RZ {
			return perm, fmt.Errorf("compiler: rz cannot be exempt")
		}
		isExempt = isExempt.Add(r)
	}
	// Liveness weight: total expected mapped time (value instances x
	// average lifetime).
	var weight [isa.RZ + 1]float64
	for _, st := range stats {
		defs := st.Defs
		if defs < 1 {
			defs = 1
		}
		weight[st.Reg] = st.AvgLifetime * float64(defs)
	}
	var exemptBuf, renamBuf [isa.RZ]isa.RegID
	exemptRegs, renamRegs := exemptBuf[:0], renamBuf[:0]
	for _, r := range used {
		if isExempt.Has(r) {
			exemptRegs = append(exemptRegs, r)
		} else {
			renamRegs = append(renamRegs, r)
		}
	}
	var bankWeight [4]float64
	assign := func(regs []isa.RegID, firstID int) {
		// Heaviest first; the order is total (registers are distinct).
		slices.SortFunc(regs, func(a, b isa.RegID) int {
			if weight[a] != weight[b] {
				if weight[a] > weight[b] {
					return -1
				}
				return 1
			}
			return cmp.Compare(a, b)
		})
		var taken [isa.RZ]bool
		for _, r := range regs {
			// Pick the free id in this class whose bank carries the least
			// accumulated weight.
			best, bestW := -1, 0.0
			for i := range regs {
				if taken[i] {
					continue
				}
				bw := bankWeight[(firstID+i)%4]
				if best == -1 || bw < bestW {
					best, bestW = i, bw
				}
			}
			taken[best] = true
			perm[r] = isa.RegID(firstID + best)
			bankWeight[(firstID+best)%4] += weight[r]
		}
	}
	assign(exemptRegs, 0)
	assign(renamRegs, len(exemptRegs))
	return perm, nil
}
