// Package compiler implements the paper's compiler support (§6): register
// lifetime analysis over the CFG, generation of per-instruction (pir) and
// per-branch (pbr) release flags, selection of renaming candidates under
// the renaming-table budget, exempt-register renumbering, and the
// compiler-spill baseline used by Fig. 11a.
package compiler

import (
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// releasePlan captures where each renameable register can be released.
type releasePlan struct {
	// pir[pc] holds the release bits for the instruction at pc (original
	// numbering), one bit per source slot; all false means none.
	pir [][isa.MaxSrcOperands]bool
	// pbr[block] is the register set released at the start of the block
	// (a reconvergence point); pbr metadata lists it in ascending order.
	pbr []liveness.RegSet
	// released[pc] is the set of registers released at pc: after the
	// instruction there for a pir release, or at the start of the block
	// there for a pbr release. Lifetime estimation reads it.
	released []liveness.RegSet
	// points is the number of (register, release point) pairs.
	points int
}

// buildReleasePlan computes pir bits and pbr sets for every register in
// renameable. The rules implement §6.1:
//
//   - Intra-block (Fig. 4(a)): release at the last read after which the
//     register is dead (SIMT-corrected liveness), provided no sibling
//     block of an enclosing divergent region accesses it (Fig. 4(b)/(c)).
//   - Reconvergence (Fig. 4(b)/(c)/(d)): registers accessed inside a
//     divergent region and dead at its reconvergence point are released
//     by a pbr at the reconvergence block, unless a pir release in a
//     dominating block already freed them on every path, or a sibling
//     of the reconvergence block in an enclosing region accesses them:
//     an inner join runs while the enclosing region's other path still
//     waits, and a pbr frees its registers for the whole warp.
//   - Loops (Fig. 4(e)): loop bodies are divergent regions whose blocks
//     are mutually reachable through the back edge, so intra-iteration
//     lifetimes still release via pir; loop-carried or post-loop-read
//     registers are forced live until the loop exit and release there.
func buildReleasePlan(li *liveness.Info, renameable liveness.RegSet) *releasePlan {
	g := li.G
	nInstrs, nBlocks := len(g.Prog.Instrs), len(g.Blocks)
	sets := make([]liveness.RegSet, nInstrs+2*nBlocks)
	plan := &releasePlan{
		pir:      make([][isa.MaxSrcOperands]bool, nInstrs),
		released: sets[:nInstrs:nInstrs],
		pbr:      sets[nInstrs : nInstrs+nBlocks : nInstrs+nBlocks],
	}
	// pirIn[b] is the set of registers some pir in block b releases.
	pirIn := sets[nInstrs+nBlocks:]
	for _, b := range g.Blocks {
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Prog.Instrs[pc]
			if in.Op.IsMeta() {
				continue
			}
			// Walk slots from the highest so a register appearing twice
			// releases on its last operand slot only.
			marked := liveness.RegSet(0)
			for slot := in.NSrc - 1; slot >= 0; slot-- {
				if !in.Srcs[slot].IsReg() {
					continue
				}
				r := in.Srcs[slot].Reg
				if !renameable.Has(r) || marked.Has(r) {
					continue
				}
				if li.LiveAfter[pc].Has(r) {
					continue
				}
				if !li.SiblingSafe(r, b.ID) {
					continue
				}
				plan.pir[pc][slot] = true
				marked = marked.Add(r)
			}
			pirIn[b.ID] |= marked
			plan.released[pc] |= marked
			plan.points += marked.Len()
		}
	}
	// pbr sets at reconvergence blocks.
	for _, region := range li.Regions {
		if region.Reconv < 0 {
			continue // reconverges at warp exit; hardware frees everything
		}
		// Skip registers still needed at/after reconvergence, those a
		// pir on every path — in a block dominating the reconvergence
		// point — already released, and those a sibling path of an
		// enclosing region still accesses.
		set := renameable & li.RegionAccessed(region) &^ li.LiveIn[region.Reconv] &^
			strictDominatorPirs(li, pirIn, region.Reconv) &^ li.SiblingAccess(region.Reconv)
		plan.pbr[region.Reconv] |= set
	}
	for blk, set := range plan.pbr {
		plan.released[g.Blocks[blk].Start] |= set
		plan.points += set.Len()
	}
	return plan
}

// strictDominatorPirs is the union of pirIn over the blocks that
// strictly dominate blk: a register in it has definitely been released
// by a pir before blk runs.
func strictDominatorPirs(li *liveness.Info, pirIn []liveness.RegSet, blk int) liveness.RegSet {
	var u liveness.RegSet
	for b := blk; b != 0; {
		b = li.G.IDom[b]
		if b < 0 {
			break // unreachable block: no dominators
		}
		u |= pirIn[b]
	}
	return u
}
