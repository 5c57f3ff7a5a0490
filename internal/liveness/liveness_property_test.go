package liveness

import (
	"slices"
	"testing"

	"regvirt/internal/cfg"
	"regvirt/internal/isa"
	"regvirt/internal/kernelgen"
)

// Dataflow invariants over random programs.
func TestLivenessInvariantsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := kernelgen.Generate(seed, kernelgen.Params{
			Regs: 12, MaxItems: 10, MaxDepth: 3,
		})
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		li := Analyze(g)
		for _, b := range g.Blocks {
			// LiveOut covers the successors' plain live-in sets (the
			// region-forcing addition is interior to each region and is
			// deliberately not propagated into predecessors outside it).
			var union RegSet
			for _, s := range b.Succs {
				union = union.Union(li.PlainLiveIn(s))
			}
			if missing := union.Minus(li.LiveOut[b.ID]); missing != 0 {
				t.Fatalf("seed %d: B%d LiveOut misses %v", seed, b.ID, missing)
			}
			// Point liveness at the block end equals LiveOut.
			if got := li.LiveAfter[b.End-1]; got != li.LiveOut[b.ID] {
				t.Fatalf("seed %d: B%d LiveAfter(end) %v != LiveOut %v", seed, b.ID, got, li.LiveOut[b.ID])
			}
			// Every upward-exposed read is live-in.
			seen := RegSet(0)
			for pc := b.Start; pc < b.End; pc++ {
				in := g.Prog.Instrs[pc]
				for _, r := range in.SrcRegs(nil) {
					if !seen.Has(r) && !li.LiveIn[b.ID].Has(r) {
						t.Fatalf("seed %d: B%d pc %d reads %v not in LiveIn", seed, b.ID, pc, r)
					}
				}
				if d, ok := in.DstReg(); ok && !in.Guard.Guarded() {
					seen = seen.Add(d)
				}
			}
		}
		// Forced registers (live at a reconvergence point) must be live at
		// every point of every block of the region.
		for _, reg := range li.Regions {
			if reg.Reconv < 0 {
				continue
			}
			f := li.PlainLiveIn(reg.Reconv)
			for _, blk := range reg.Blocks {
				for pc := g.Blocks[blk].Start; pc < g.Blocks[blk].End; pc++ {
					if missing := f.Minus(li.LiveAfter[pc]); missing != 0 {
						t.Fatalf("seed %d: forcing violated at pc %d: %v", seed, pc, missing)
					}
				}
			}
		}
	}
}

// TestSiblingSafeMatchesDefinition checks SiblingSafe against its
// definition, computed directly: r is unsafe in x when some region
// containing x has a member y != x that accesses r, where neither of x
// and y reaches the other along edges into region members.
func TestSiblingSafeMatchesDefinition(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := kernelgen.Generate(seed, kernelgen.Params{
			Regs: 8 + int(seed%8), MaxItems: 6 + int(seed%8), MaxDepth: 1 + int(seed%3),
		})
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		li := Analyze(g)
		reaches := func(reg Region, from, to int) bool {
			in := map[int]bool{}
			for _, b := range reg.Blocks {
				in[b] = true
			}
			seen := map[int]bool{}
			stack := []int{from}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, s := range g.Blocks[b].Succs {
					if in[s] && !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
			return seen[to]
		}
		// Ask from the last block down, twice, so answers come both
		// fresh and cached.
		for pass := 0; pass < 2; pass++ {
			for x := len(g.Blocks) - 1; x >= 0; x-- {
				var want RegSet
				for _, reg := range li.Regions {
					if !slices.Contains(reg.Blocks, x) {
						continue
					}
					for _, y := range reg.Blocks {
						if y != x && !reaches(reg, x, y) && !reaches(reg, y, x) {
							want |= li.Accessed[y]
						}
					}
				}
				for r := isa.RegID(0); r < isa.RZ; r++ {
					if got := li.SiblingSafe(r, x); got != !want.Has(r) {
						t.Fatalf("seed %d pass %d: SiblingSafe(r%d, B%d) = %v, want %v", seed, pass, r, x, got, !want.Has(r))
					}
				}
			}
		}
	}
}
