package compiler

import (
	"math/bits"

	"regvirt/internal/cfg"
	"regvirt/internal/isa"
)

// insertMeta rewrites the program with pir/pbr metadata instructions
// (§6.2). pbr instructions go at the start of their reconvergence block;
// a pir precedes each 18-instruction window of a basic block that
// contains at least one release bit. Branch targets, labels, and
// reconvergence PCs are remapped to the new block starts so that control
// transfers land on the metadata instructions (which the fetch stage
// pre-processes) before the block body.
//
// The output is what a compiled kernel keeps for as long as it is
// cached, so a first pass sizes it: its instructions share one
// exact-length slab, and so do its pbr register lists.
func insertMeta(g *cfg.Graph, plan *releasePlan) (*isa.Program, error) {
	prog := g.Prog
	nInstrs, nPbrRegs := len(prog.Instrs), 0
	for _, b := range g.Blocks {
		regs := plan.pbr[b.ID].Len()
		nPbrRegs += regs
		nInstrs += (regs + isa.PbrMaxRegs - 1) / isa.PbrMaxRegs
		for pc := b.Start; pc < b.End; pc += isa.PirGroupCount {
			if _, any := pirWindow(plan, pc, min(pc+isa.PirGroupCount, b.End)); any {
				nInstrs++
			}
		}
	}
	slab := make([]isa.Instr, 0, nInstrs)
	var pbrRegs []isa.RegID
	if nPbrRegs > 0 {
		pbrRegs = make([]isa.RegID, 0, nPbrRegs)
	}
	newStart := make([]int, len(g.Blocks))
	for _, b := range g.Blocks {
		newStart[b.ID] = len(slab)
		// pbr instructions first, chunked by capacity, registers in
		// ascending order.
		for set := uint64(plan.pbr[b.ID]); set != 0; {
			at := len(pbrRegs)
			for ; set != 0 && len(pbrRegs)-at < isa.PbrMaxRegs; set &= set - 1 {
				pbrRegs = append(pbrRegs, isa.RegID(bits.TrailingZeros64(set)))
			}
			slab = append(slab, isa.Instr{
				Op: isa.OpPbr, Guard: isa.NoPred, SetPred: -1, Target: -1, Reconv: -1,
				PbrRegs: pbrRegs[at:len(pbrRegs):len(pbrRegs)],
			})
		}
		// Then the block body in 18-instruction windows, each preceded by
		// a pir when any instruction in the window releases something.
		for pc := b.Start; pc < b.End; pc += isa.PirGroupCount {
			end := min(pc+isa.PirGroupCount, b.End)
			if flags, any := pirWindow(plan, pc, end); any {
				if _, err := isa.EncodePir(flags); err != nil {
					return nil, err
				}
				slab = append(slab, isa.Instr{
					Op: isa.OpPir, Guard: isa.NoPred, SetPred: -1, Target: -1, Reconv: -1,
					PirFlags: flags,
				})
			}
			for i := pc; i < end; i++ {
				cp := *prog.Instrs[i]
				if bits := plan.pir[i]; bits != noRelease {
					cp.Rel = bits
				}
				slab = append(slab, cp)
			}
		}
	}
	mapPC := func(oldPC int) int { return newStart[g.BlockOf[oldPC]] }
	q := &isa.Program{Name: prog.Name, RegCount: prog.RegCount, Instrs: make([]*isa.Instr, len(slab)),
		Labels: make(map[string]int, len(prog.Labels))}
	for name, pc := range prog.Labels {
		q.Labels[name] = mapPC(pc)
	}
	for i := range slab {
		in := &slab[i]
		q.Instrs[i] = in
		if in.Op == isa.OpBra {
			// Branch targets are always block starts.
			if in.TargetLabel == "" {
				in.Target = mapPC(in.Target)
			}
			if in.Reconv >= 0 {
				in.Reconv = mapPC(in.Reconv)
			}
		}
	}
	if err := q.Rebuild(); err != nil {
		return nil, err
	}
	return q, nil
}

// noRelease is the pir bits of an instruction that releases nothing.
var noRelease [isa.MaxSrcOperands]bool

// pirWindow packs the release bits of instructions [pc, end) into one
// pir payload and reports whether any is set.
func pirWindow(plan *releasePlan, pc, end int) (flags uint64, any bool) {
	for i := pc; i < end; i++ {
		if bits := plan.pir[i]; bits != noRelease {
			flags = isa.PackPirGroup(flags, i-pc, bits)
			any = true
		}
	}
	return flags, any
}
