package compiler

import (
	"fmt"
	"sort"

	"regvirt/internal/isa"
)

// spillTemps is the number of architected registers reserved for staging
// spilled values (enough for three source operands; the destination
// reuses the first temp after sources are consumed).
const spillTemps = 3

// SpillTo is the "Compiler spill" baseline of Fig. 11a: it rewrites the
// program to use at most maxRegs architected registers by spilling the
// statically least-accessed registers to the system-reserved spill space,
// inserting a fill before every read and a spill store after every write.
// When the program already fits, it returns an untouched clone.
func SpillTo(src *isa.Program, maxRegs int) (*isa.Program, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	used := src.UsedRegs()
	if len(used) <= maxRegs {
		return src.Clone(), nil
	}
	if maxRegs < spillTemps+1 {
		return nil, fmt.Errorf("compiler: cannot spill into %d registers (need at least %d)", maxRegs, spillTemps+1)
	}
	p := src.Clone()

	// Rank registers by static access count; keep the busiest.
	counts := map[isa.RegID]int{}
	var scratch []isa.RegID
	for _, in := range p.Instrs {
		scratch = in.SrcRegs(scratch[:0])
		for _, r := range scratch {
			counts[r]++
		}
		if d, ok := in.DstReg(); ok {
			counts[d]++
		}
	}
	order := append([]isa.RegID(nil), used...)
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	keepBudget := maxRegs - spillTemps
	kept := order[:keepBudget]
	spilled := order[keepBudget:]

	// Kept registers compact onto the lowest ids; temps take the top ids.
	perm := map[isa.RegID]isa.RegID{}
	keptSorted := append([]isa.RegID(nil), kept...)
	sort.Slice(keptSorted, func(i, j int) bool { return keptSorted[i] < keptSorted[j] })
	for i, r := range keptSorted {
		perm[r] = isa.RegID(i)
	}
	slot := map[isa.RegID]int32{}
	for i, r := range spilled {
		slot[r] = int32(i * 4)
	}
	isSpilled := func(r isa.RegID) bool {
		_, ok := slot[r]
		return ok
	}
	temp := func(i int) isa.RegID { return isa.RegID(maxRegs - spillTemps + i) }

	// Kept registers are remapped inline (never via a whole-program pass:
	// the temp ids would collide with original ids).
	mapKept := func(r isa.RegID) isa.RegID {
		if n, ok := perm[r]; ok {
			return n
		}
		return r // RZ
	}
	var out []*isa.Instr
	newPC := make([]int, len(p.Instrs))
	for pc, in := range p.Instrs {
		newPC[pc] = len(out)
		cp := *in
		// Fills: one load per distinct spilled source register.
		tempOf := map[isa.RegID]isa.RegID{}
		next := 0
		for i := 0; i < cp.NSrc; i++ {
			if !cp.Srcs[i].IsReg() {
				continue
			}
			v := cp.Srcs[i].Reg
			if !isSpilled(v) {
				cp.Srcs[i].Reg = mapKept(v)
				continue
			}
			t, ok := tempOf[v]
			if !ok {
				t = temp(next)
				next++
				tempOf[v] = t
				out = append(out, &isa.Instr{
					Op: isa.OpLd, Guard: isa.NoPred, SetPred: -1, Target: -1, Reconv: -1,
					Space: isa.SpaceSpill, Dst: isa.R(t),
					Srcs: [isa.MaxSrcOperands]isa.Operand{isa.R(isa.RZ)}, NSrc: 1,
					MemOff: slot[v],
				})
			}
			cp.Srcs[i].Reg = t
		}
		// Destination: stage in temp 0 and store back, preserving the guard
		// so partially-executed writes stay partial.
		var post *isa.Instr
		if d, ok := cp.DstReg(); ok {
			if isSpilled(d) {
				cp.Dst.Reg = temp(0)
				post = &isa.Instr{
					Op: isa.OpSt, Guard: cp.Guard, SetPred: -1, Target: -1, Reconv: -1,
					Space: isa.SpaceSpill,
					Srcs:  [isa.MaxSrcOperands]isa.Operand{isa.R(isa.RZ), isa.R(temp(0))},
					NSrc:  2, MemOff: slot[d],
				}
			} else {
				cp.Dst.Reg = mapKept(d)
			}
		}
		out = append(out, &cp)
		if post != nil {
			out = append(out, post)
		}
	}
	q := &isa.Program{Name: p.Name, RegCount: maxRegs, Instrs: out,
		Labels: make(map[string]int, len(p.Labels))}
	for name, pc := range p.Labels {
		q.Labels[name] = newPC[pc]
	}
	for _, in := range q.Instrs {
		if in.Op == isa.OpBra {
			if in.TargetLabel == "" {
				in.Target = newPC[in.Target]
			}
			if in.Reconv >= 0 {
				in.Reconv = newPC[in.Reconv]
			}
		}
	}
	if err := q.Rebuild(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: spilled program invalid: %w", err)
	}
	return q, nil
}
