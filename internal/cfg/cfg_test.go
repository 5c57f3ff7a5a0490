package cfg

import (
	"testing"

	"regvirt/internal/isa"
)

// Straight-line kernel: one block.
const straight = `
.kernel straight
    mov  r1, r2
    iadd r3, r1, r2
    exit
`

// If-else diamond.
const diamond = `
.kernel diamond
    isetp.lt p0, r1, r2
@p0 bra else_bb
    mov r3, r1
    bra join
else_bb:
    mov r3, r2
join:
    iadd r4, r3, r3
    exit
`

// Simple counted loop.
const loopK = `
.kernel loopk
    movi r1, 0
loop:
    iadd r2, r2, r1
    iadd r1, r1, 1
    isetp.lt p0, r1, 10
@p0 bra loop
    st.global [r3+0], r2
    exit
`

// Nested loops.
const nested = `
.kernel nested
    movi r1, 0
outer:
    movi r2, 0
inner:
    iadd r3, r3, r2
    iadd r2, r2, 1
    isetp.lt p0, r2, 4
@p0 bra inner
    iadd r1, r1, 1
    isetp.lt p1, r1, 4
@p1 bra outer
    exit
`

func build(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := Build(isa.MustParse(src))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestStraightLineSingleBlock(t *testing.T) {
	g := build(t, straight)
	if len(g.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(g.Blocks))
	}
	b := g.Blocks[0]
	if b.Start != 0 || b.End != 3 {
		t.Errorf("block range [%d,%d), want [0,3)", b.Start, b.End)
	}
	if len(b.Succs) != 0 {
		t.Errorf("exit block has successors %v", b.Succs)
	}
	if g.IPDom[0] != VirtualExit {
		t.Errorf("IPDom of sole block = %d, want VirtualExit", g.IPDom[0])
	}
}

func TestDiamondStructure(t *testing.T) {
	g := build(t, diamond)
	// Blocks: B0 = [isetp, bra], B1 = [mov, bra join], B2 = else, B3 = join.
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4: %s", len(g.Blocks), g)
	}
	b0 := g.Blocks[0]
	if len(b0.Succs) != 2 {
		t.Fatalf("branch block succs = %v, want 2", b0.Succs)
	}
	join := g.BlockOf[g.Prog.Labels["join"]]
	if g.IPDom[0] != join {
		t.Errorf("IPDom(B0) = %d, want join block %d", g.IPDom[0], join)
	}
	if g.IDom[join] != 0 {
		t.Errorf("IDom(join) = %d, want 0", g.IDom[join])
	}
	// Both arms are dominated by B0 and post-dominated by join.
	for _, arm := range []int{1, 2} {
		if !g.Dominates(0, arm) {
			t.Errorf("B0 should dominate B%d", arm)
		}
		if g.IPDom[arm] != join {
			t.Errorf("IPDom(B%d) = %d, want %d", arm, g.IPDom[arm], join)
		}
	}
	if len(g.Loops) != 0 {
		t.Errorf("diamond has %d loops, want 0", len(g.Loops))
	}
}

func TestDiamondReconvergenceAnnotation(t *testing.T) {
	g := build(t, diamond)
	var bra *isa.Instr
	for _, in := range g.Prog.Instrs {
		if in.Op == isa.OpBra && in.Guard.Guarded() {
			bra = in
		}
	}
	if bra == nil {
		t.Fatal("no conditional branch found")
	}
	if want := g.Prog.Labels["join"]; bra.Reconv != want {
		t.Errorf("Reconv = %d, want %d", bra.Reconv, want)
	}
}

func TestLoopDetection(t *testing.T) {
	g := build(t, loopK)
	if len(g.Loops) != 1 {
		t.Fatalf("got %d loops, want 1: %s", len(g.Loops), g)
	}
	l := g.Loops[0]
	head := g.BlockOf[g.Prog.Labels["loop"]]
	if l.Head != head {
		t.Errorf("loop head = %d, want %d", l.Head, head)
	}
	if len(l.BackEdges) != 1 {
		t.Errorf("back edges = %v, want 1", l.BackEdges)
	}
	if len(l.ExitBlocks) != 1 {
		t.Fatalf("exit blocks = %v, want 1", l.ExitBlocks)
	}
	exit := g.Blocks[l.ExitBlocks[0]]
	if g.Prog.Instrs[exit.Start].Op != isa.OpSt {
		t.Errorf("loop exit block should start at the store")
	}
	if g.LoopDepth[l.Head] != 1 {
		t.Errorf("loop head depth = %d, want 1", g.LoopDepth[l.Head])
	}
}

func TestLoopBranchReconvergesAtHeader(t *testing.T) {
	// The back-edge branch's IPDom is the loop exit path; its reconvergence
	// point must be outside the loop body (the store block), because warps
	// re-enter the loop in lockstep only when all lanes agree.
	g := build(t, loopK)
	var bra *isa.Instr
	for _, in := range g.Prog.Instrs {
		if in.Op == isa.OpBra && in.Guard.Guarded() {
			bra = in
		}
	}
	exitStart := -1
	for _, l := range g.Loops {
		exitStart = g.Blocks[l.ExitBlocks[0]].Start
	}
	if bra.Reconv != exitStart {
		t.Errorf("loop branch Reconv = %d, want exit block start %d", bra.Reconv, exitStart)
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, nested)
	if len(g.Loops) != 2 {
		t.Fatalf("got %d loops, want 2: %s", len(g.Loops), g)
	}
	loopAt := func(label string) *Loop {
		for _, l := range g.Loops {
			if l.Head == g.BlockOf[g.Prog.Labels[label]] {
				return l
			}
		}
		return nil
	}
	inner, outer := loopAt("inner"), loopAt("outer")
	if inner == nil || outer == nil {
		t.Fatal("loops not found by header")
	}
	if inner == outer {
		t.Fatal("inner and outer resolved to the same loop")
	}
	if len(inner.Blocks) >= len(outer.Blocks) {
		t.Errorf("inner loop (%d blocks) not smaller than outer (%d)", len(inner.Blocks), len(outer.Blocks))
	}
	if inner.Parent < 0 || g.Loops[inner.Parent] != outer {
		t.Errorf("inner.Parent does not point at outer loop")
	}
	if outer.Parent != -1 {
		t.Errorf("outer.Parent = %d, want -1", outer.Parent)
	}
	innerHead := g.BlockOf[g.Prog.Labels["inner"]]
	if g.LoopDepth[innerHead] != 2 {
		t.Errorf("inner head depth = %d, want 2", g.LoopDepth[innerHead])
	}
	if !outer.Contains(innerHead) {
		t.Error("outer loop should contain inner head")
	}
}

func TestBlockOfCoversEveryInstruction(t *testing.T) {
	for _, src := range []string{straight, diamond, loopK, nested} {
		g := build(t, src)
		for pc := range g.Prog.Instrs {
			b := g.BlockOf[pc]
			if b < 0 || b >= len(g.Blocks) {
				t.Fatalf("pc %d mapped to invalid block %d", pc, b)
			}
			blk := g.Blocks[b]
			if pc < blk.Start || pc >= blk.End {
				t.Fatalf("pc %d outside its block [%d,%d)", pc, blk.Start, blk.End)
			}
		}
		// Blocks must partition the program.
		covered := 0
		for _, b := range g.Blocks {
			covered += b.Len()
		}
		if covered != len(g.Prog.Instrs) {
			t.Fatalf("%s: blocks cover %d of %d instructions", g.Prog.Name, covered, len(g.Prog.Instrs))
		}
	}
}

func TestPredsMatchSuccs(t *testing.T) {
	for _, src := range []string{diamond, loopK, nested} {
		g := build(t, src)
		for _, b := range g.Blocks {
			for _, s := range b.Succs {
				found := false
				for _, p := range g.Blocks[s].Preds {
					if p == b.ID {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: edge B%d->B%d missing reverse link", g.Prog.Name, b.ID, s)
				}
			}
		}
	}
}

func TestEntryDominatesEverything(t *testing.T) {
	for _, src := range []string{diamond, loopK, nested} {
		g := build(t, src)
		for _, b := range g.Blocks {
			if !g.Dominates(0, b.ID) {
				t.Errorf("%s: entry does not dominate B%d", g.Prog.Name, b.ID)
			}
		}
	}
}

func TestBarrierEndsBlock(t *testing.T) {
	g := build(t, ".kernel k\n mov r1, r2\n bar\n mov r2, r1\n exit")
	if len(g.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2 (bar must end a block)", len(g.Blocks))
	}
	if g.Blocks[0].End != 2 {
		t.Errorf("first block ends at %d, want 2", g.Blocks[0].End)
	}
}

func TestBuildRejectsInvalidProgram(t *testing.T) {
	p := isa.MustParse(".kernel k\n mov r1, r2\n exit")
	p.Instrs = p.Instrs[:1]
	if _, err := Build(p); err == nil {
		t.Error("Build accepted invalid program")
	}
}

func TestMultipleExits(t *testing.T) {
	src := `
.kernel twoexits
    isetp.eq p0, r1, r2
@p0 bra out
    mov r3, r1
    exit
out:
    mov r3, r2
    exit
`
	g := build(t, src)
	// Both exits post-dominate into the virtual exit; the conditional
	// branch therefore reconverges only at warp exit.
	var bra *isa.Instr
	for _, in := range g.Prog.Instrs {
		if in.Op == isa.OpBra && in.Guard.Guarded() {
			bra = in
		}
	}
	if bra.Reconv != -1 {
		t.Errorf("Reconv = %d, want -1 (warp exit)", bra.Reconv)
	}
}
