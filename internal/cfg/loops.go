package cfg

import (
	"cmp"
	"slices"
	"sort"
)

// Loop is a natural loop: the header block plus every block that can
// reach a back edge source without passing through the header.
type Loop struct {
	// Head is the loop header block id.
	Head int
	// Blocks is the sorted set of member block ids (including Head).
	Blocks []int
	// BackEdges are the (source, header) edges that define the loop.
	BackEdges [][2]int
	// ExitBlocks are blocks outside the loop that are successors of a
	// member block — where loop-carried registers become releasable
	// (§6.1, Fig. 4(d)).
	ExitBlocks []int
	// Parent is the index in Graph.Loops of the innermost enclosing loop,
	// or -1.
	Parent int
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool {
	i := sort.SearchInts(l.Blocks, b)
	return i < len(l.Blocks) && l.Blocks[i] == b
}

// findLoops detects back edges (u -> v with v dominating u), builds the
// natural loop of each header, merges loops sharing a header, computes
// exit blocks, nesting and per-block loop depth. Loops come in
// ascending header order. Every loop is marked in the same two
// block-indexed rows, which are cleared again entry by entry, so the
// work and memory stay linear in the blocks plus the loops' total size.
func (g *Graph) findLoops() {
	n := len(g.Blocks)
	g.LoopDepth = make([]int, n)
	var back [][2]int // (source, header), in block order
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if g.Dominates(s, b.ID) {
				back = append(back, [2]int{b.ID, s})
			}
		}
	}
	if len(back) == 0 {
		return
	}
	// Group by header; the stable sort keeps each header's edges in
	// block order.
	slices.SortStableFunc(back, func(x, y [2]int) int { return cmp.Compare(x[1], y[1]) })
	heads := 1
	for i := 1; i < len(back); i++ {
		if back[i][1] != back[i-1][1] {
			heads++
		}
	}
	loops := make([]Loop, 0, heads)
	for i := 0; i < len(back); {
		j := i + 1
		for j < len(back) && back[j][1] == back[i][1] {
			j++
		}
		loops = append(loops, Loop{Head: back[i][1], Parent: -1, BackEdges: back[i:j:j]})
		i = j
	}
	in, out := make([]bool, n), make([]bool, n)
	stack := make([]int, 0, n) // a block is pushed once, when marked
	found := make([]int, 0, n) // each loop's blocks, then its exits
	g.Loops = make([]*Loop, heads)
	for i := range loops {
		l := &loops[i]
		at := len(found)
		in[l.Head] = true
		found = append(found, l.Head)
		for _, e := range l.BackEdges {
			if !in[e[0]] {
				in[e[0]] = true
				found = append(found, e[0])
				stack = append(stack, e[0])
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Blocks[b].Preds {
				if !in[p] {
					in[p] = true
					found = append(found, p)
					stack = append(stack, p)
				}
			}
		}
		mid := len(found)
		for k := at; k < mid; k++ {
			for _, s := range g.Blocks[found[k]].Succs {
				if !in[s] && !out[s] {
					out[s] = true
					found = append(found, s)
				}
			}
		}
		for _, b := range found[at:] {
			in[b], out[b] = false, false
		}
		l.Blocks = found[at:mid:mid]
		slices.Sort(l.Blocks)
		if mid < len(found) {
			l.ExitBlocks = found[mid:len(found):len(found)]
			slices.Sort(l.ExitBlocks)
		}
		g.Loops[i] = l
	}
	// Nesting: loop A is the parent of loop B when A contains B's header
	// and A != B; pick the smallest such container. Natural loops with
	// different headers are disjoint or nested, and a loop containing
	// B's header contains B and is larger, so visiting loops from the
	// largest down, the last one to claim B's header is B's parent.
	bySize := make([]int, heads)
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortFunc(bySize, func(x, y int) int { return cmp.Compare(len(loops[y].Blocks), len(loops[x].Blocks)) })
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for _, i := range bySize {
		l := &loops[i]
		l.Parent = owner[l.Head]
		for _, b := range l.Blocks {
			owner[b] = i
		}
	}
	for _, l := range g.Loops {
		for _, b := range l.Blocks {
			g.LoopDepth[b]++
		}
	}
}
