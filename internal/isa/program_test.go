package isa

import (
	"testing"
)

func TestCloneIsDeep(t *testing.T) {
	p := MustParse(sampleKernel)
	p.Instrs[0].PbrRegs = []RegID{1, 2}
	q := p.Clone()
	q.Instrs[0].Dst.Reg = 42
	q.Instrs[0].PbrRegs[0] = 9
	q.Labels["loop"] = 99
	if p.Instrs[0].Dst.Reg == 42 {
		t.Error("Clone shares instruction storage")
	}
	if p.Instrs[0].PbrRegs[0] == 9 {
		t.Error("Clone shares PbrRegs storage")
	}
	if p.Labels["loop"] == 99 {
		t.Error("Clone shares label map")
	}
}

func TestUsedRegsAndMax(t *testing.T) {
	p := MustParse(sampleKernel)
	regs := p.UsedRegs()
	want := []RegID{0, 1, 2, 3, 4}
	if len(regs) != len(want) {
		t.Fatalf("UsedRegs = %v, want %v", regs, want)
	}
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("UsedRegs = %v, want %v", regs, want)
		}
	}
	if got := p.MaxUsedReg(); got != 4 {
		t.Errorf("MaxUsedReg = %d, want 4", got)
	}
}

func TestValidateCatchesFallOffEnd(t *testing.T) {
	p := MustParse(".kernel k\n mov r1, r2\n exit")
	p.Instrs = p.Instrs[:1] // drop the exit
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted program without terminator")
	}
}

func TestValidateAcceptsTrailingUnconditionalBranch(t *testing.T) {
	p := MustParse(".kernel k\ntop:\n exit\n bra top")
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct{ src, want string }{
		{" iadd r1, r2, r3", "iadd r1, r2, r3"},
		{" movi r1, -5", "movi r1, -5"},
		{" ld.shared r1, [r2+4]", "ld.shared r1, [r2+4]"},
		{" st.global [r1+0], r2", "st.global [r1+0], r2"},
		{" isetp.ge p1, r1, 7", "isetp.ge p1, r1, 7"},
		{"@!p1 mov r1, r2", "@!p1 mov r1, r2"},
		{" s2r r0, %tid.x", "s2r r0, %tid.x"},
		{" .pbr r1, r2", ".pbr r1, r2"},
		{" sel r1, r2, r3, !p1", "sel r1, r2, r3, !p1"},
	}
	for _, tc := range cases {
		p := MustParse(".kernel k\n" + tc.src + "\n exit")
		if got := p.Instrs[0].String(); got != tc.want {
			t.Errorf("String(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		c    CmpOp
		a, b int32
		want bool
	}{
		{CmpEQ, 3, 3, true}, {CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true}, {CmpNE, 4, 4, false},
		{CmpLT, -1, 0, true}, {CmpLT, 0, 0, false},
		{CmpLE, 0, 0, true}, {CmpLE, 1, 0, false},
		{CmpGT, 1, 0, true}, {CmpGT, 0, 0, false},
		{CmpGE, 0, 0, true}, {CmpGE, -1, 0, false},
	}
	for _, tc := range cases {
		if got := tc.c.Eval(tc.a, tc.b); got != tc.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", tc.c, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestOpcodeClassification(t *testing.T) {
	if !OpPir.IsMeta() || !OpPbr.IsMeta() || OpMov.IsMeta() {
		t.Error("IsMeta wrong")
	}
	if !OpLd.IsMemory() || !OpSt.IsMemory() || OpIAdd.IsMemory() {
		t.Error("IsMemory wrong")
	}
	for _, o := range []Opcode{OpMov, OpMovi, OpS2R, OpIAdd, OpIMad, OpLd, OpRcp, OpSel} {
		if !o.WritesReg() {
			t.Errorf("%v should write a register", o)
		}
	}
	for _, o := range []Opcode{OpSt, OpBra, OpExit, OpBar, OpPir, OpPbr, OpISetp, OpNop} {
		if o.WritesReg() {
			t.Errorf("%v should not write a register", o)
		}
	}
}

func TestValidateRejectsOutOfRangeReads(t *testing.T) {
	p := MustParse(".kernel k\n.reg 4\n movi r1, 5\n st.global [r1+0], r1\n exit")
	p.Instrs[1].Srcs[1] = R(50) // read beyond .reg 4
	if err := p.Validate(); err == nil {
		t.Error("out-of-range source read accepted")
	}
	q := MustParse(".kernel k\n.reg 4\n iadd r1, rz, rz\n st.global [r1+0], r1\n exit")
	if err := q.Validate(); err != nil {
		t.Errorf("rz reads must stay valid: %v", err)
	}
	// pbr beyond .reg is also invalid.
	r := MustParse(".kernel k\n.reg 4\n .pbr r2\n movi r1, 5\n st.global [r1+0], r1\n exit")
	r.Instrs[0].PbrRegs[0] = 40
	if err := r.Validate(); err == nil {
		t.Error("out-of-range pbr accepted")
	}
}

// TestValidateBoundsDecodedRegisters feeds Validate programs that carry
// register ids Parse would refuse: a .reg above MaxRegsPerThread, and a
// destination above RZ. A program built in memory can hold them. Later
// passes index per-register tables by these ids, so Validate must
// refuse them.
func TestValidateBoundsDecodedRegisters(t *testing.T) {
	const src = ".kernel k\n.reg 4\n movi r1, 5\n st.global [r1+0], r1\n exit"

	// A program built in memory takes .reg and every register id as set.
	p := MustParse(src)
	p.RegCount = 255
	if err := p.Validate(); err == nil {
		t.Error("built program: .reg 255 validated")
	}
	p.RegCount = MaxRegsPerThread
	if err := p.Validate(); err != nil {
		t.Errorf("built program: .reg %d refused: %v", MaxRegsPerThread, err)
	}
	p.Instrs[0].Dst = R(200)
	if err := p.Validate(); err == nil {
		t.Error("built program: a write to r200 validated")
	}
}
