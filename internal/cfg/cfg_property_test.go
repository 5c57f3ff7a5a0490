package cfg

import (
	"testing"

	"regvirt/internal/isa"
	"regvirt/internal/kernelgen"
)

// Structural invariants of the CFG machinery over random programs.
func TestCFGInvariantsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := kernelgen.Generate(seed, kernelgen.Params{
			Regs: 12, MaxItems: 12, MaxDepth: 3, Barriers: seed%2 == 0,
		})
		g, err := Build(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Blocks partition the instruction range.
		covered := 0
		for _, b := range g.Blocks {
			if b.Start >= b.End {
				t.Fatalf("seed %d: empty block B%d", seed, b.ID)
			}
			covered += b.Len()
		}
		if covered != len(p.Instrs) {
			t.Fatalf("seed %d: blocks cover %d of %d", seed, covered, len(p.Instrs))
		}
		for _, b := range g.Blocks {
			// Entry dominates every reachable block; idom is a dominator.
			if len(b.Preds) > 0 || b.ID == 0 {
				if !g.Dominates(0, b.ID) {
					t.Fatalf("seed %d: entry does not dominate B%d", seed, b.ID)
				}
			}
			if b.ID != 0 && g.IDom[b.ID] >= 0 && !g.Dominates(g.IDom[b.ID], b.ID) {
				t.Fatalf("seed %d: idom(B%d) does not dominate it", seed, b.ID)
			}
			// Edges are symmetric.
			for _, succ := range b.Succs {
				found := false
				for _, pr := range g.Blocks[succ].Preds {
					if pr == b.ID {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d: missing reverse edge B%d->B%d", seed, b.ID, succ)
				}
			}
		}
		// Loop membership: headers dominate every member block.
		for _, l := range g.Loops {
			for _, m := range l.Blocks {
				if !g.Dominates(l.Head, m) {
					t.Fatalf("seed %d: loop head B%d does not dominate member B%d", seed, l.Head, m)
				}
			}
			for _, e := range l.ExitBlocks {
				if l.Contains(e) {
					t.Fatalf("seed %d: exit block B%d inside its own loop", seed, e)
				}
			}
		}
		// Conditional branches reconverge at a block start or warp exit.
		for _, in := range p.Instrs {
			if in.Op == isa.OpBra && in.Guard.Guarded() {
				if in.Reconv >= 0 && g.Blocks[g.BlockOf[in.Reconv]].Start != in.Reconv {
					t.Fatalf("seed %d: reconvergence pc %d is not a block start", seed, in.Reconv)
				}
			}
		}
	}
}
