// Package cfg builds the control-flow graph of a kernel: basic blocks,
// dominator and post-dominator trees, and natural loops. The compiler's
// lifetime analysis (§6.1) consumes the graph to place per-instruction
// release flags inside basic blocks and per-branch release flags at
// reconvergence points (immediate post-dominators) and loop exits.
package cfg

import (
	"fmt"

	"regvirt/internal/isa"
)

// Block is a basic block: the half-open instruction range [Start, End).
type Block struct {
	ID    int
	Start int // first instruction PC
	End   int // one past the last instruction PC
	Succs []int
	Preds []int
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Graph is the control-flow graph of one program.
type Graph struct {
	Prog    *isa.Program
	Blocks  []*Block
	BlockOf []int // instruction PC -> block id

	// IDom[b] is the immediate dominator of block b (-1 for entry).
	IDom []int
	// IPDom[b] is the immediate post-dominator of block b. A value of
	// VirtualExit means the block post-dominates straight into program
	// termination (its divergence reconverges only at warp exit).
	IPDom []int
	// LoopDepth[b] is the nesting depth of block b (0 = not in a loop).
	LoopDepth []int
	Loops     []*Loop
}

// VirtualExit is the pseudo-block id used as the sink of the reversed CFG.
const VirtualExit = -2

// Build constructs the CFG, dominators, post-dominators and loops, and
// annotates every conditional branch instruction with its reconvergence
// PC (the start of its immediate post-dominator block).
func Build(p *isa.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Prog: p}
	g.findBlocks()
	g.linkBlocks()
	g.computeDominators()
	g.computePostDominators()
	g.findLoops()
	g.annotateReconvergence()
	return g, nil
}

func (g *Graph) findBlocks() {
	n := len(g.Prog.Instrs)
	leader := make([]bool, n)
	leader[0] = true
	for pc, in := range g.Prog.Instrs {
		switch {
		case in.Op == isa.OpBra:
			leader[in.Target] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case in.Op == isa.OpExit || in.Op == isa.OpBar:
			// Barriers end blocks so that pbr placement never straddles a
			// synchronization point.
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	nBlocks := 0
	for _, l := range leader {
		if l {
			nBlocks++
		}
	}
	slab := make([]Block, nBlocks)
	g.Blocks = make([]*Block, nBlocks)
	g.BlockOf = make([]int, n)
	for pc, id := 0, 0; pc < n; id++ {
		end := pc + 1
		for end < n && !leader[end] {
			end++
		}
		slab[id] = Block{ID: id, Start: pc, End: end}
		g.Blocks[id] = &slab[id]
		for i := pc; i < end; i++ {
			g.BlockOf[i] = id
		}
		pc = end
	}
}

// succsOf returns block b's successors in edge order (fall-through
// before taken) and how many there are. A conditional branch to its
// own fall-through has that successor twice.
func (g *Graph) succsOf(b *Block) (succs [2]int, n int) {
	last := g.Prog.Instrs[b.End-1]
	hasNext := b.End < len(g.Prog.Instrs)
	switch {
	case last.Op == isa.OpExit && !last.Guard.Guarded():
		// no successors
	case last.Op == isa.OpExit:
		// Guarded exit: the non-exiting lanes fall through.
		if hasNext {
			succs[n], n = g.BlockOf[b.End], n+1
		}
	case last.Op == isa.OpBra && !last.Guard.Guarded():
		succs[n], n = g.BlockOf[last.Target], n+1
	case last.Op == isa.OpBra:
		// Conditional: fall-through first, then taken.
		if hasNext {
			succs[n], n = g.BlockOf[b.End], n+1
		}
		succs[n], n = g.BlockOf[last.Target], n+1
	default:
		if hasNext {
			succs[n], n = g.BlockOf[b.End], n+1
		}
	}
	return succs, n
}

// linkBlocks fills Succs and Preds. Every list is an exact-capacity
// window of one shared edge slab: a first pass counts the edges, the
// second files them, Preds in ascending source-block order.
func (g *Graph) linkBlocks() {
	nPreds := make([]int, len(g.Blocks))
	edges := 0
	for _, b := range g.Blocks {
		succs, n := g.succsOf(b)
		for _, s := range succs[:n] {
			nPreds[s]++
		}
		edges += n
	}
	slab := make([]int, 0, 2*edges)
	for _, b := range g.Blocks {
		_, n := g.succsOf(b)
		b.Succs = slab[len(slab) : len(slab) : len(slab)+n]
		slab = slab[:len(slab)+n]
		b.Preds = slab[len(slab) : len(slab) : len(slab)+nPreds[b.ID]]
		slab = slab[:len(slab)+nPreds[b.ID]]
	}
	for _, b := range g.Blocks {
		succs, n := g.succsOf(b)
		for _, s := range succs[:n] {
			b.Succs = append(b.Succs, s)
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, b.ID)
		}
	}
}

// reversePostorder returns blocks in reverse postorder from the entry.
func (g *Graph) reversePostorder() []int {
	order := make([]int, 0, len(g.Blocks))
	order = g.postorder(0, make([]bool, len(g.Blocks)), order)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// postorder appends the blocks reachable from b, depth first along
// Succs, in postorder.
func (g *Graph) postorder(b int, seen []bool, order []int) []int {
	seen[b] = true
	for _, s := range g.Blocks[b].Succs {
		if !seen[s] {
			order = g.postorder(s, seen, order)
		}
	}
	return append(order, b)
}

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.IDom = make([]int, n)
	for i := range g.IDom {
		g.IDom[i] = -1
	}
	rpo := g.reversePostorder()
	rpoIndex := make([]int, n)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	for i, b := range rpo {
		rpoIndex[b] = i
	}
	g.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if rpoIndex[p] < 0 || g.IDom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(g.IDom, rpoIndex, p, newIdom)
				}
			}
			if newIdom != -1 && g.IDom[b] != newIdom {
				g.IDom[b] = newIdom
				changed = true
			}
		}
	}
	g.IDom[0] = -1
}

func intersect(idom, rpoIndex []int, a, b int) int {
	for a != b {
		for rpoIndex[a] > rpoIndex[b] {
			a = idom[a]
		}
		for rpoIndex[b] > rpoIndex[a] {
			b = idom[b]
		}
	}
	return a
}

// computePostDominators runs the same algorithm over the reversed graph
// with a virtual exit node collecting every exit block. Node n is the
// virtual exit: a block's reversed-graph successors are its Preds (the
// exit blocks, for node n), and its reversed-graph predecessors are its
// Succs (node n, for an exit block).
func (g *Graph) computePostDominators() {
	n := len(g.Blocks)
	// Reverse postorder from the virtual exit over reversed edges.
	order := g.exitPostorder(n, make([]bool, n+1), make([]int, 0, n+1))
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoIndex := make([]int, n+1)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	for i, b := range order {
		rpoIndex[b] = i
	}
	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[n] = n
	exitOnly := [1]int{n}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == n {
				continue
			}
			succs := g.Blocks[b].Succs // preds in reversed graph
			if len(succs) == 0 {
				succs = exitOnly[:]
			}
			newIdom := -1
			for _, p := range succs {
				if rpoIndex[p] < 0 || ipdom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(ipdom, rpoIndex, p, newIdom)
				}
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	g.IPDom = make([]int, n)
	for i := 0; i < n; i++ {
		if ipdom[i] == n || ipdom[i] == -1 {
			g.IPDom[i] = VirtualExit
		} else {
			g.IPDom[i] = ipdom[i]
		}
	}
}

// exitPostorder appends the nodes reachable from node b of the reversed
// graph (n = len(g.Blocks) is the virtual exit), depth first, in
// postorder.
func (g *Graph) exitPostorder(b int, seen []bool, order []int) []int {
	seen[b] = true
	if b == len(g.Blocks) {
		for _, x := range g.Blocks {
			if len(x.Succs) == 0 && !seen[x.ID] {
				order = g.exitPostorder(x.ID, seen, order)
			}
		}
	} else {
		for _, s := range g.Blocks[b].Preds {
			if !seen[s] {
				order = g.exitPostorder(s, seen, order)
			}
		}
	}
	return append(order, b)
}

// Dominates reports whether block a dominates block b.
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = g.IDom[b]
	}
	return false
}

// annotateReconvergence fills Instr.Reconv on every conditional branch
// with the start PC of the branch block's immediate post-dominator.
func (g *Graph) annotateReconvergence() {
	for _, b := range g.Blocks {
		last := g.Prog.Instrs[b.End-1]
		if last.Op != isa.OpBra || !last.Guard.Guarded() {
			continue
		}
		if pd := g.IPDom[b.ID]; pd >= 0 {
			last.Reconv = g.Blocks[pd].Start
		} else {
			last.Reconv = -1 // reconverge at warp exit
		}
	}
}

func (g *Graph) String() string {
	s := fmt.Sprintf("cfg %s: %d blocks\n", g.Prog.Name, len(g.Blocks))
	for _, b := range g.Blocks {
		s += fmt.Sprintf("  B%d [%d,%d) succs=%v preds=%v idom=%d ipdom=%d depth=%d\n",
			b.ID, b.Start, b.End, b.Succs, b.Preds, g.IDom[b.ID], g.IPDom[b.ID], g.LoopDepth[b.ID])
	}
	return s
}
