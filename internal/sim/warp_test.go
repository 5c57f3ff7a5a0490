package sim

import (
	"testing"

	"regvirt/internal/isa"
)

// newWarp is a lone warp covering threads lanes, with no CTA.
func newWarp(threads int) *warp {
	w := new(warp)
	w.init(0, nil, 0, threads, nil)
	return w
}

func TestFullMask(t *testing.T) {
	if fullMask(32) != ^uint32(0) {
		t.Error("fullMask(32) wrong")
	}
	if fullMask(40) != ^uint32(0) {
		t.Error("fullMask(>32) should clamp to full")
	}
	if got := fullMask(8); got != 0xff {
		t.Errorf("fullMask(8) = %#x, want 0xff", got)
	}
	if got := fullMask(1); got != 1 {
		t.Errorf("fullMask(1) = %#x", got)
	}
}

func TestSIMTDivergeAndReconverge(t *testing.T) {
	w := newWarp(32)
	w.top().pc = 10 // at the branch
	// Lanes 0..15 take the branch to 20, 16..31 fall through to 11;
	// reconvergence at 30.
	w.diverge(20, 11, 30, 0x0000ffff, 0xffff0000)
	if len(w.stack) != 3 {
		t.Fatalf("stack depth %d, want 3", len(w.stack))
	}
	// Taken path executes first.
	if w.pc() != 20 || w.activeMask() != 0x0000ffff {
		t.Fatalf("top = pc %d mask %#x, want 20/ffff", w.pc(), w.activeMask())
	}
	// Walk the taken path to the reconvergence point.
	w.jump(21)
	w.jump(30) // pops the taken frame
	// Now the fall-through path runs.
	if w.pc() != 11 || w.activeMask() != 0xffff0000 {
		t.Fatalf("after taken path: pc %d mask %#x, want 11/ffff0000", w.pc(), w.activeMask())
	}
	w.jump(30) // pops the fall frame
	// Both popped: base frame at the reconvergence pc with the full mask.
	if len(w.stack) != 1 {
		t.Fatalf("stack depth %d after reconvergence, want 1", len(w.stack))
	}
	if w.pc() != 30 || w.activeMask() != ^uint32(0) {
		t.Errorf("reconverged at pc %d mask %#x", w.pc(), w.activeMask())
	}
}

func TestSIMTDivergeSideAtReconvergence(t *testing.T) {
	// The fall-through side starts at the reconvergence point (a loop
	// back edge): only the taken side gets a frame; the waiting lanes
	// merge into the parked base frame.
	w := newWarp(32)
	w.top().pc = 5
	w.diverge(2, 6, 6, 0x0f, ^uint32(0xf))
	if len(w.stack) != 2 {
		t.Fatalf("stack depth %d, want 2 (no frame for the waiting side)", len(w.stack))
	}
	if w.pc() != 2 || w.activeMask() != 0x0f {
		t.Fatalf("looping lanes: pc %d mask %#x", w.pc(), w.activeMask())
	}
	// Loop path reaches the exit: pops, and everyone resumes at 6.
	w.jump(6)
	if len(w.stack) != 1 || w.pc() != 6 || w.activeMask() != ^uint32(0) {
		t.Errorf("after loop drain: depth=%d pc=%d mask=%#x", len(w.stack), w.pc(), w.activeMask())
	}
}

func TestSIMTNestedDivergence(t *testing.T) {
	w := newWarp(32)
	w.top().pc = 0
	w.diverge(10, 1, 40, 0xffff, 0xffff0000) // outer
	// Inside the taken path (pc 10, lanes 0..15), diverge again.
	if w.pc() != 10 {
		t.Fatal("setup wrong")
	}
	w.diverge(20, 11, 25, 0x00ff, 0xff00) // inner
	if w.pc() != 20 || w.activeMask() != 0x00ff {
		t.Fatalf("inner taken: pc %d mask %#x", w.pc(), w.activeMask())
	}
	w.jump(25) // inner taken reaches inner reconv
	if w.pc() != 11 || w.activeMask() != 0xff00 {
		t.Fatalf("inner fall: pc %d mask %#x", w.pc(), w.activeMask())
	}
	w.jump(25) // inner fall reaches inner reconv
	if w.pc() != 25 || w.activeMask() != 0xffff {
		t.Fatalf("inner reconverged: pc %d mask %#x", w.pc(), w.activeMask())
	}
	w.jump(40) // outer taken side reaches outer reconv
	if w.pc() != 1 || w.activeMask() != 0xffff0000 {
		t.Fatalf("outer fall: pc %d mask %#x", w.pc(), w.activeMask())
	}
	w.jump(40)
	if len(w.stack) != 1 || w.activeMask() != ^uint32(0) {
		t.Errorf("outer reconverged: depth %d mask %#x", len(w.stack), w.activeMask())
	}
}

func TestExitLanesPartialAndFull(t *testing.T) {
	w := newWarp(32)
	if w.exitLanes(0x0000ffff) {
		t.Error("half the lanes exiting should not finish the warp")
	}
	if w.activeMask() != 0xffff0000 {
		t.Errorf("mask = %#x after partial exit", w.activeMask())
	}
	if !w.exitLanes(0xffff0000) {
		t.Error("all lanes exited; warp should finish")
	}
}

func TestExitLanesAcrossDivergence(t *testing.T) {
	// Lanes exiting inside a divergent path must drain from every frame.
	w := newWarp(32)
	w.top().pc = 0
	w.diverge(10, 1, -1, 0xff, ^uint32(0xff)) // reconverge only at exit
	if w.pc() != 10 {
		t.Fatal("setup wrong")
	}
	if w.exitLanes(0xff) {
		t.Error("other path still has lanes")
	}
	// Now the fall-through path is on top.
	if w.activeMask() != ^uint32(0xff) {
		t.Fatalf("mask %#x", w.activeMask())
	}
	if !w.exitLanes(^uint32(0xff)) {
		t.Error("all lanes gone; warp should finish")
	}
}

func TestPredMask(t *testing.T) {
	w := newWarp(32)
	w.preds[1] = 0x0f0f
	if got := w.predMask(isa.Pred{Reg: 1}); got != 0x0f0f {
		t.Errorf("predMask(p1) = %#x", got)
	}
	if got := w.predMask(isa.Pred{Reg: 1, Neg: true}); got != ^uint32(0x0f0f) {
		t.Errorf("predMask(!p1) = %#x", got)
	}
	if got := w.predMask(isa.NoPred); got != ^uint32(0) {
		t.Errorf("unguarded predMask = %#x", got)
	}
}

func TestLaneCount(t *testing.T) {
	if laneCount(0) != 0 || laneCount(^uint32(0)) != 32 || laneCount(0xf0) != 4 {
		t.Error("laneCount wrong")
	}
}
