package compiler

import (
	"testing"

	"regvirt/internal/isa"
)

const spillSrc = `
.kernel spilly
    movi r0, 10
    movi r1, 11
    movi r2, 12
    movi r3, 13
    movi r4, 14
    movi r5, 15
    iadd r6, r0, r1
    iadd r6, r6, r2
    iadd r6, r6, r3
    iadd r6, r6, r4
    iadd r6, r6, r5
    st.global [r7+0], r6
    exit
`

func TestSpillToFitsBudget(t *testing.T) {
	q, err := SpillTo(isa.MustParse(spillSrc), 6)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	if got := len(q.UsedRegs()); got > 6 {
		t.Errorf("spilled program uses %d registers, budget 6\n%s", got, q)
	}
	if q.RegCount != 6 {
		t.Errorf("RegCount = %d, want 6", q.RegCount)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSpillToNoOpWhenFits(t *testing.T) {
	p := isa.MustParse(spillSrc)
	q, err := SpillTo(p, 10)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	if len(q.Instrs) != len(p.Instrs) {
		t.Errorf("no-op spill changed instruction count %d -> %d", len(p.Instrs), len(q.Instrs))
	}
}

func TestSpillToInsertsFillsAndStores(t *testing.T) {
	q, err := SpillTo(isa.MustParse(spillSrc), 6)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	fills, stores := 0, 0
	for _, in := range q.Instrs {
		if in.Space == isa.SpaceSpill {
			switch in.Op {
			case isa.OpLd:
				fills++
			case isa.OpSt:
				stores++
			}
		}
	}
	if fills == 0 || stores == 0 {
		t.Errorf("fills=%d stores=%d, want both > 0", fills, stores)
	}
}

func TestSpillRejectsTinyBudget(t *testing.T) {
	if _, err := SpillTo(isa.MustParse(spillSrc), 3); err == nil {
		t.Error("SpillTo accepted a budget smaller than the temps")
	}
}

func TestSpillPreservesControlFlow(t *testing.T) {
	src := `
.kernel sp
    movi r0, 0
    movi r1, 1
    movi r2, 2
    movi r3, 3
    movi r4, 4
    movi r5, 5
    movi r6, 6
loop:
    iadd r6, r6, r1
    iadd r0, r0, 1
    isetp.lt p0, r0, 4
@p0 bra loop
    st.global [r5+0], r6
    exit
`
	q, err := SpillTo(isa.MustParse(src), 6)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The back edge must still target the loop label's new location.
	var bra *isa.Instr
	for _, in := range q.Instrs {
		if in.Op == isa.OpBra {
			bra = in
		}
	}
	if bra.Target != q.Labels["loop"] {
		t.Errorf("branch target %d != loop label %d", bra.Target, q.Labels["loop"])
	}
}

func TestSpillGuardedWriteKeepsGuard(t *testing.T) {
	src := `
.kernel g
    movi r0, 0
    movi r1, 1
    movi r2, 2
    movi r3, 3
    movi r4, 4
    movi r5, 5
    isetp.lt p0, r0, r1
@p0 movi r5, 9
    st.global [r4+0], r5
    exit
`
	q, err := SpillTo(isa.MustParse(src), 6)
	if err != nil {
		t.Fatalf("SpillTo: %v", err)
	}
	// Every spill store following a guarded def must carry the same guard.
	for i, in := range q.Instrs {
		if in.Op == isa.OpSt && in.Space == isa.SpaceSpill && i > 0 {
			def := q.Instrs[i-1]
			if def.Guard != in.Guard {
				t.Errorf("spill store guard %v != def guard %v", in.Guard, def.Guard)
			}
		}
	}
}
