// Package liveness computes SIMT-aware register liveness for a kernel CFG
// (paper §4, §6.1). Two GPU-specific rules distinguish it from classic CPU
// liveness:
//
//  1. Partial kills. A guarded definition writes only the lanes where the
//     guard holds, so it never kills. An unguarded definition inside a
//     divergent region (between a conditional branch and its
//     reconvergence point) writes only the currently-active lanes;
//     masked lanes keep their old values until the region reconverges.
//     Those stale values are observable exactly by the reads that are
//     live-in at the reconvergence point — so every register live-in at
//     a region's reconvergence point is forced live throughout the
//     region. Registers consumed entirely inside the region (Fig. 4(e))
//     still die there and remain releasable.
//
//  2. Sibling reads. Warps traverse both sides of a divergent branch
//     sequentially, so a register read on both arms of a branch must not
//     be released on the first-executed arm (Fig. 4(b)/(c)) — the release
//     moves to the reconvergence point. Plain CFG liveness cannot see
//     this because the arms are not connected by edges.
package liveness

import (
	"slices"

	"regvirt/internal/cfg"
	"regvirt/internal/isa"
)

// Region is the divergent region of one conditional branch: the blocks
// reachable from the branch's successors without passing through its
// immediate post-dominator.
type Region struct {
	// Branch is the block ending in the conditional branch.
	Branch int
	// Reconv is the reconvergence block (ipdom), or cfg.VirtualExit when
	// the paths only rejoin at warp exit.
	Reconv int
	// Blocks is the sorted member set (excludes Reconv, and Branch
	// unless a back edge re-enters it).
	Blocks []int
}

// Info holds the analysis results for one kernel.
type Info struct {
	G *cfg.Graph

	// LiveIn and LiveOut are per-block register liveness with the SIMT
	// region-forcing correction applied (see the package comment).
	LiveIn, LiveOut []RegSet
	// LiveAfter[pc] is the set of registers live immediately after the
	// instruction at pc, SIMT-corrected. A register absent from
	// LiveAfter[pc] is safe to release after pc, subject to SiblingSafe.
	LiveAfter []RegSet
	// plainLiveIn is the classic CFG liveness (guarded defs non-killing,
	// unguarded defs killing) before region forcing.
	plainLiveIn []RegSet
	// force[b] is the union of plain live-in sets of the reconvergence
	// blocks of every region containing block b.
	force []RegSet
	// Divergent[b] reports whether block b lies inside any divergent
	// region.
	Divergent []bool
	// Regions lists one entry per conditional branch.
	Regions []Region
	// Accessed[b] is the set of registers read or written in block b.
	Accessed []RegSet
	// siblingUnsafe[b] is the set of registers some sibling block of a
	// region containing b accesses, once walk[b] has walkDone set (see
	// SiblingSafe).
	siblingUnsafe []RegSet
	// walk (per-block flags) and stack are SiblingAccess's scratch,
	// made on the first query.
	walk  []uint8
	stack []int
}

// Analyze runs the analysis over a built CFG.
func Analyze(g *cfg.Graph) *Info {
	n := len(g.Blocks)
	// The per-block sets share one slab.
	sets := make([]RegSet, 6*n)
	info := &Info{
		G:             g,
		Accessed:      sets[0*n : 1*n : 1*n],
		LiveIn:        sets[1*n : 2*n : 2*n],
		LiveOut:       sets[2*n : 3*n : 3*n],
		plainLiveIn:   sets[3*n : 4*n : 4*n],
		force:         sets[4*n : 5*n : 5*n],
		siblingUnsafe: sets[5*n : 6*n : 6*n],
	}
	info.findRegions()
	info.computeBlockAccess()
	info.solveDataflow()
	info.computeForcing()
	info.computePointLiveness()
	return info
}

// findRegions computes the divergent region of each conditional branch by
// DFS from the branch successors, stopping at the reconvergence block.
// Each region is marked in one shared row, listed, and cleared entry by
// entry, so the work stays linear in the regions' total size.
func (li *Info) findRegions() {
	g := li.G
	n := len(g.Blocks)
	li.Divergent = make([]bool, n)
	nRegions := 0
	for _, b := range g.Blocks {
		if li.divergentBranch(b) {
			nRegions++
		}
	}
	if nRegions == 0 {
		return
	}
	li.Regions = make([]Region, 0, nRegions)
	member := make([]bool, n)
	// Each marked block pushes at most its two successors.
	stack := make([]int, 0, 2*n+2)
	found := make([]int, 0, n) // the regions' blocks, back to back
	for _, b := range g.Blocks {
		if !li.divergentBranch(b) {
			continue
		}
		at := len(found)
		found = li.markRegion(b, member, stack, found)
		blocks := found[at:len(found):len(found)]
		slices.Sort(blocks)
		for _, x := range blocks {
			// The branch block itself can be re-entered through a back
			// edge (loop bodies include their header); if the DFS
			// reached it, it is part of the region, otherwise it
			// executes fully converged.
			member[x] = false
			li.Divergent[x] = true
		}
		li.Regions = append(li.Regions, Region{Branch: b.ID, Reconv: g.IPDom[b.ID], Blocks: blocks})
	}
}

// divergentBranch reports whether block b ends in a conditional branch.
func (li *Info) divergentBranch(b *cfg.Block) bool {
	last := li.G.Prog.Instrs[b.End-1]
	return last.Op == isa.OpBra && last.Guard.Guarded()
}

// markRegion marks in member the blocks reachable from b's successors
// without passing through b's reconvergence block, and appends them to
// found. stack is scratch space of capacity 2n+2.
func (li *Info) markRegion(b *cfg.Block, member []bool, stack, found []int) []int {
	reconv := li.G.IPDom[b.ID]
	stack = append(stack[:0], b.Succs...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == reconv || member[x] {
			continue
		}
		member[x] = true
		found = append(found, x)
		stack = append(stack, li.G.Blocks[x].Succs...)
	}
	return found
}

func (li *Info) computeBlockAccess() {
	g := li.G
	var scratch [isa.MaxSrcOperands]isa.RegID
	for _, b := range g.Blocks {
		var acc RegSet
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Prog.Instrs[pc]
			for _, r := range in.SrcRegs(scratch[:0]) {
				acc = acc.Add(r)
			}
			if d, ok := in.DstReg(); ok {
				acc = acc.Add(d)
			}
			for _, r := range in.PbrRegs {
				acc = acc.Add(r)
			}
		}
		li.Accessed[b.ID] = acc
	}
}

// kills reports whether the instruction's definition kills its destination
// in the base dataflow: only unguarded defs do (guarded ones write a lane
// subset). Divergence-induced partial writes are handled by region forcing
// rather than here, so in-region value chains still die locally.
func (li *Info) kills(in *isa.Instr) bool {
	return !in.Guard.Guarded()
}

// solveDataflow iterates backward liveness to a fixed point using
// block-level gen (upward-exposed uses) and kill (full defs) sets.
func (li *Info) solveDataflow() {
	g := li.G
	n := len(g.Blocks)
	genKill := make([]RegSet, 2*n)
	gen, kill := genKill[:n], genKill[n:]
	var scratch [isa.MaxSrcOperands]isa.RegID
	for _, b := range g.Blocks {
		var bgen, bkill RegSet
		for pc := b.Start; pc < b.End; pc++ {
			in := g.Prog.Instrs[pc]
			for _, r := range in.SrcRegs(scratch[:0]) {
				if !bkill.Has(r) {
					bgen = bgen.Add(r)
				}
			}
			if d, ok := in.DstReg(); ok && li.kills(in) {
				bkill = bkill.Add(d)
			}
		}
		gen[b.ID] = bgen
		kill[b.ID] = bkill
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			var out RegSet
			for _, s := range b.Succs {
				out = out.Union(li.LiveIn[s])
			}
			in := gen[i].Union(out.Minus(kill[i]))
			if out != li.LiveOut[i] || in != li.LiveIn[i] {
				li.LiveOut[i] = out
				li.LiveIn[i] = in
				changed = true
			}
		}
	}
	copy(li.plainLiveIn, li.LiveIn)
}

// computeForcing derives per-block forced-live sets from region
// reconvergence points and folds them into LiveIn/LiveOut.
func (li *Info) computeForcing() {
	for _, reg := range li.Regions {
		var f RegSet
		if reg.Reconv >= 0 {
			f = li.plainLiveIn[reg.Reconv]
		}
		for _, b := range reg.Blocks {
			li.force[b] = li.force[b].Union(f)
		}
	}
	for b := range li.G.Blocks {
		li.LiveIn[b] = li.LiveIn[b].Union(li.force[b])
		li.LiveOut[b] = li.LiveOut[b].Union(li.force[b])
	}
}

// computePointLiveness walks each block backward to produce LiveAfter for
// every instruction.
func (li *Info) computePointLiveness() {
	g := li.G
	li.LiveAfter = make([]RegSet, len(g.Prog.Instrs))
	var scratch [isa.MaxSrcOperands]isa.RegID
	for _, b := range g.Blocks {
		live := li.LiveOut[b.ID]
		for pc := b.End - 1; pc >= b.Start; pc-- {
			in := g.Prog.Instrs[pc]
			li.LiveAfter[pc] = live.Union(li.force[b.ID])
			if d, ok := in.DstReg(); ok && li.kills(in) {
				live = live.Remove(d)
			}
			for _, r := range in.SrcRegs(scratch[:0]) {
				live = live.Add(r)
			}
		}
	}
}

// PlainLiveIn returns the classic (un-forced) live-in set of a block; the
// compiler uses it to compute pbr release sets at reconvergence points.
func (li *Info) PlainLiveIn(b int) RegSet { return li.plainLiveIn[b] }

// SiblingSafe reports whether releasing register r at a point inside
// block x is safe with respect to divergence: for every region containing
// x, no *sibling* block of the region (one not mutually reachable with x
// by region-internal paths) accesses r. Loop bodies remain release-friendly
// because back edges make their blocks mutually reachable; if/else arms do
// not (Fig. 4(b)). The answer for x is computed on the first query and
// cached in li, so an Info must not be queried concurrently.
func (li *Info) SiblingSafe(r isa.RegID, x int) bool {
	return !li.SiblingAccess(x).Has(r)
}

// Bits of Info.walk.
const (
	walkDone     uint8 = 1 << iota // siblingUnsafe[b] holds b's answer
	walkInRegion                   // b belongs to the region being walked
	walkFwd                        // x reaches b inside the region
	walkBwd                        // b reaches x inside the region
)

// SiblingAccess returns the set of registers accessed by the siblings
// of x: the blocks y of a region containing x where neither of x and y
// reaches the other along region-internal edges (not passing through
// the reconvergence block). None of them may be released in x, nor at
// its start. It walks forward and backward from x once per such
// region, so its memory is linear in the block count; like SiblingSafe
// it caches the answer and must not be called concurrently.
func (li *Info) SiblingAccess(x int) RegSet {
	if li.walk == nil {
		li.walk = make([]uint8, len(li.G.Blocks))
		li.stack = make([]int, 0, len(li.G.Blocks)+1) // a block is pushed once, when marked
	}
	if li.walk[x]&walkDone != 0 {
		return li.siblingUnsafe[x]
	}
	var acc RegSet
	for _, reg := range li.Regions {
		if _, in := slices.BinarySearch(reg.Blocks, x); !in || len(reg.Blocks) < 2 {
			continue // a lone member has no siblings
		}
		for _, b := range reg.Blocks {
			li.walk[b] |= walkInRegion
		}
		li.reachInRegion(x, walkFwd)
		li.reachInRegion(x, walkBwd)
		for _, y := range reg.Blocks {
			if y != x && li.walk[y]&(walkFwd|walkBwd) == 0 {
				acc |= li.Accessed[y]
			}
			li.walk[y] &^= walkInRegion | walkFwd | walkBwd
		}
	}
	li.siblingUnsafe[x] = acc
	li.walk[x] |= walkDone
	return acc
}

// reachInRegion marks with bit (walkFwd along Succs, walkBwd along
// Preds) every block of the walked region that a non-empty path of
// region blocks connects to x.
func (li *Info) reachInRegion(x int, bit uint8) {
	stack := append(li.stack[:0], x)
	for len(stack) > 0 {
		b := li.G.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		next := b.Succs
		if bit == walkBwd {
			next = b.Preds
		}
		for _, s := range next {
			if w := li.walk[s]; w&walkInRegion != 0 && w&bit == 0 {
				li.walk[s] |= bit
				stack = append(stack, s)
			}
		}
	}
}

// RegionAccessed is the set of registers read or written anywhere in
// the region's member blocks.
func (li *Info) RegionAccessed(reg Region) RegSet {
	var acc RegSet
	for _, b := range reg.Blocks {
		acc |= li.Accessed[b]
	}
	return acc
}
