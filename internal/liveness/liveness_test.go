package liveness

import (
	"testing"
	"testing/quick"

	"regvirt/internal/cfg"
	"regvirt/internal/isa"
)

func analyze(t *testing.T, src string) *Info {
	t.Helper()
	g, err := cfg.Build(isa.MustParse(src))
	if err != nil {
		t.Fatalf("cfg.Build: %v", err)
	}
	return Analyze(g)
}

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	s = s.Add(3).Add(7).Add(3)
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Errorf("membership wrong: %v", s)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	s = s.Remove(3)
	if s.Has(3) || !s.Has(7) {
		t.Errorf("Remove wrong: %v", s)
	}
	if got := s.Add(1).Regs(); len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Errorf("Regs = %v, want [r1 r7]", got)
	}
}

func TestRegSetIgnoresRZ(t *testing.T) {
	var s RegSet
	s = s.Add(isa.RZ)
	if s != 0 || s.Has(isa.RZ) {
		t.Error("RZ must never enter a RegSet")
	}
}

func TestRegSetAlgebra(t *testing.T) {
	f := func(a, b uint64) bool {
		// Mask out bit 63: RZ is not representable in a RegSet.
		x, y := RegSet(a&^(1<<63)), RegSet(b&^(1<<63))
		u := x.Union(y)
		for _, r := range x.Regs() {
			if !u.Has(r) {
				return false
			}
		}
		d := x.Minus(y)
		for _, r := range d.Regs() {
			if y.Has(r) {
				return false
			}
		}
		return u.Len() <= x.Len()+y.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStraightLineLiveness(t *testing.T) {
	li := analyze(t, `
.kernel k
    movi r1, 1
    movi r2, 2
    iadd r3, r1, r2
    st.global [r4+0], r3
    exit
`)
	// After the iadd, r1 and r2 are dead; r3 and r4 live.
	after := li.LiveAfter[2]
	if after.Has(1) || after.Has(2) {
		t.Errorf("r1/r2 should be dead after iadd: %v", after)
	}
	if !after.Has(3) || !after.Has(4) {
		t.Errorf("r3/r4 should be live after iadd: %v", after)
	}
	// Nothing is live after the store (exit follows).
	if got := li.LiveAfter[3]; got != 0 {
		t.Errorf("live after store = %v, want empty", got)
	}
}

func TestRedefinitionEndsLifetime(t *testing.T) {
	li := analyze(t, `
.kernel k
    movi r1, 1
    iadd r2, r1, r1
    movi r1, 5
    st.global [r3+0], r1
    st.global [r3+4], r2
    exit
`)
	// r1's first value dies at the iadd (redefined at pc 2, Fig. 4(a)).
	if li.LiveAfter[1].Has(1) {
		t.Errorf("r1 should be dead between last read and redefinition: %v", li.LiveAfter[1])
	}
	if !li.LiveAfter[2].Has(1) {
		t.Error("r1 should be live after redefinition")
	}
}

const diamondShared = `
.kernel d
    movi r1, 1
    isetp.lt p0, r2, r3
@p0 bra else_bb
    iadd r4, r1, r1
    bra join
else_bb:
    iadd r4, r1, r2
join:
    st.global [r5+0], r4
    exit
`

func TestDivergentRegionDetection(t *testing.T) {
	li := analyze(t, diamondShared)
	if len(li.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(li.Regions))
	}
	reg := li.Regions[0]
	joinBlk := li.G.BlockOf[li.G.Prog.Labels["join"]]
	if reg.Reconv != joinBlk {
		t.Errorf("Reconv = %d, want %d", reg.Reconv, joinBlk)
	}
	if len(reg.Blocks) != 2 {
		t.Errorf("region blocks = %v, want the two arms", reg.Blocks)
	}
	for _, b := range reg.Blocks {
		if !li.Divergent[b] {
			t.Errorf("arm block %d not marked divergent", b)
		}
	}
	if li.Divergent[0] || li.Divergent[joinBlk] {
		t.Error("branch/join blocks must not be divergent")
	}
}

func TestSiblingReadBlocksRelease(t *testing.T) {
	li := analyze(t, diamondShared)
	// r1 is read in both arms: releasing it in either arm is unsafe.
	thenBlk := li.G.BlockOf[2] + 1 // block after the branch block
	_ = thenBlk
	for _, reg := range li.Regions {
		for _, b := range reg.Blocks {
			if li.Accessed[b].Has(1) && li.SiblingSafe(1, b) {
				t.Errorf("r1 release in arm block %d should be sibling-unsafe", b)
			}
		}
	}
	// r2 is read only in the else arm; releasing it there is sibling-safe.
	elseBlk := li.G.BlockOf[li.G.Prog.Labels["else_bb"]]
	if !li.SiblingSafe(2, elseBlk) {
		t.Error("r2 release in else arm should be sibling-safe")
	}
}

func TestGuardedDefDoesNotKill(t *testing.T) {
	li := analyze(t, `
.kernel k
    movi r1, 1
    isetp.lt p0, r2, r3
@p0 movi r1, 2
    st.global [r4+0], r1
    exit
`)
	// The guarded redefinition is a partial write: lanes where p0 is false
	// still need the original value, so r1 stays live across pc 2.
	if !li.LiveAfter[1].Has(1) {
		t.Error("r1 must stay live across a guarded (partial) redefinition")
	}
}

const loopSrc = `
.kernel l
    movi r1, 0
    movi r2, 0
loop:
    ld.global r3, [r4+0]
    iadd r2, r2, r3
    iadd r1, r1, 1
    isetp.lt p0, r1, 10
@p0 bra loop
    st.global [r5+0], r2
    exit
`

func TestLoopCarriedStaysLive(t *testing.T) {
	li := analyze(t, loopSrc)
	// r2 (accumulator) is loop-carried and read after the loop: live
	// throughout the body.
	for pc := li.G.Prog.Labels["loop"]; pc < len(li.G.Prog.Instrs)-2; pc++ {
		if !li.LiveAfter[pc].Has(2) {
			t.Errorf("r2 dead after pc %d, must stay live through the loop", pc)
		}
	}
}

func TestShortLivedInLoopDies(t *testing.T) {
	li := analyze(t, loopSrc)
	// r3 is loaded and consumed within one iteration (Fig. 4(e)): dead
	// after the first iadd.
	iaddPC := li.G.Prog.Labels["loop"] + 1
	if li.LiveAfter[iaddPC].Has(3) {
		t.Errorf("r3 should be dead after its only read: %v", li.LiveAfter[iaddPC])
	}
	// And releasing it inside the loop body is sibling-safe because loop
	// blocks are mutually reachable through the back edge.
	blk := li.G.BlockOf[iaddPC]
	if !li.SiblingSafe(3, blk) {
		t.Error("r3 release inside loop body should be sibling-safe")
	}
}

func TestLoopBodyIsDivergentRegion(t *testing.T) {
	li := analyze(t, loopSrc)
	// The conditional back edge makes the loop body a divergent region.
	loopBlk := li.G.BlockOf[li.G.Prog.Labels["loop"]]
	if !li.Divergent[loopBlk] {
		t.Error("loop body should be inside a divergent region")
	}
}

func TestUnguardedDefInLoopDoesNotKill(t *testing.T) {
	// r3 written each iteration (unguarded) but read after the loop: lanes
	// that exit early keep older r3 values, so r3 must be live through the
	// body (partial-kill rule for divergent blocks).
	li := analyze(t, `
.kernel k
    movi r1, 0
loop:
    ld.global r3, [r4+0]
    iadd r1, r1, 1
    isetp.lt p0, r1, 10
@p0 bra loop
    st.global [r5+0], r3
    exit
`)
	loopStart := li.G.Prog.Labels["loop"]
	// Before the load in iteration k, the value from iteration k-1 is
	// still needed by already-exited lanes.
	if !li.LiveIn[li.G.BlockOf[loopStart]].Has(3) {
		t.Error("r3 must be live-in to the loop header: exited lanes hold final values")
	}
}

func TestLiveInOfEntryHoldsKernelInputs(t *testing.T) {
	li := analyze(t, diamondShared)
	// r2, r3, r5 are read before any definition: upward-exposed inputs.
	in := li.LiveIn[0]
	for _, r := range []isa.RegID{2, 3, 5} {
		if !in.Has(r) {
			t.Errorf("r%d should be live-in at entry", r)
		}
	}
}

func TestAccessedInRegion(t *testing.T) {
	li := analyze(t, diamondShared)
	acc := li.RegionAccessed(li.Regions[0])
	if !acc.Has(1) || !acc.Has(4) {
		t.Error("r1/r4 are accessed in the region")
	}
	if acc.Has(5) {
		t.Error("r5 is only accessed at the join, not in the region")
	}
}

func TestLiveAfterConsistentWithLiveOut(t *testing.T) {
	for _, src := range []string{diamondShared, loopSrc} {
		li := analyze(t, src)
		for _, b := range li.G.Blocks {
			if got := li.LiveAfter[b.End-1]; got != li.LiveOut[b.ID] {
				t.Errorf("LiveAfter(last of B%d) = %v, LiveOut = %v", b.ID, got, li.LiveOut[b.ID])
			}
		}
	}
}
