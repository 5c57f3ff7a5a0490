package isa

import (
	"testing"
)

func TestInsertAtShiftsLabelsAndTargets(t *testing.T) {
	p := MustParse(sampleKernel)
	loopPC := p.Labels["loop"]
	// Resolve targets numerically (drop labels) to test numeric shifting.
	for _, in := range p.Instrs {
		if in.Op == OpBra {
			in.TargetLabel = ""
		}
	}
	meta := &Instr{Op: OpPir, Guard: NoPred, SetPred: -1, Target: -1, Reconv: -1}
	p.InsertAt(loopPC, meta)
	if err := p.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got := p.Labels["loop"]; got != loopPC+1 {
		t.Errorf("loop label = %d, want %d", got, loopPC+1)
	}
	var bra *Instr
	for _, in := range p.Instrs {
		if in.Op == OpBra {
			bra = in
		}
	}
	if bra.Target != loopPC+1 {
		t.Errorf("branch target = %d, want %d", bra.Target, loopPC+1)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate after insert: %v", err)
	}
}

func TestInsertAtBeforeInsertionPointLeavesEarlierTargetsAlone(t *testing.T) {
	// A backward branch to pc 0 must not shift when inserting after it.
	p := MustParse(".kernel k\ntop:\n iadd r1, r1, r2\n bra top\n exit")
	for _, in := range p.Instrs {
		if in.Op == OpBra {
			in.TargetLabel = ""
		}
	}
	p.InsertAt(2, &Instr{Op: OpNop, Guard: NoPred, SetPred: -1, Target: -1, Reconv: -1})
	if err := p.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if p.Instrs[1].Target != 0 {
		t.Errorf("backward target shifted to %d", p.Instrs[1].Target)
	}
}

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
	if !OpBra.IsBranch() || OpExit.IsBranch() {
		t.Error("IsBranch wrong")
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

func TestLongLatencyClassification(t *testing.T) {
	gl := MustParse(".kernel k\n ld.global r1, [r2]\n exit").Instrs[0]
	sh := MustParse(".kernel k\n ld.shared r1, [r2]\n exit").Instrs[0]
	sfu := MustParse(".kernel k\n rcp r1, r2\n exit").Instrs[0]
	alu := MustParse(".kernel k\n iadd r1, r2, r3\n exit").Instrs[0]
	if !gl.IsLongLatency() {
		t.Error("global load should be long latency")
	}
	if sh.IsLongLatency() {
		t.Error("shared load should not be long latency")
	}
	if !sfu.IsLongLatency() {
		t.Error("rcp should be long latency")
	}
	if alu.IsLongLatency() {
		t.Error("iadd should not be long latency")
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

// TestValidateBoundsDecodedRegisters feeds Validate programs from both
// decoders that carry register ids Parse would refuse: a .reg above
// MaxRegsPerThread, and a destination above RZ. Later passes index
// per-register tables by these ids, so Validate must refuse them.
func TestValidateBoundsDecodedRegisters(t *testing.T) {
	const src = ".kernel k\n.reg 4\n movi r1, 5\n st.global [r1+0], r1\n exit"

	// Unmarshal takes .reg and every register id from its input.
	p := MustParse(src)
	p.RegCount = 255
	p.Instrs[0].Dst = R(200)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.RegCount != 255 || q.Instrs[0].Dst.Reg != 200 {
		t.Fatalf("round trip lost the test's registers: .reg %d, dst %v", q.RegCount, q.Instrs[0].Dst)
	}
	if err := q.Validate(); err == nil {
		t.Error("Unmarshal: .reg 255 validated")
	}
	q.RegCount = MaxRegsPerThread
	if err := q.Validate(); err == nil {
		t.Error("Unmarshal: a write to r200 validated")
	}

	// DecodeBinary's register fields are six bits wide, but .reg comes
	// from the header word.
	words, err := EncodeBinary(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	words[0] = words[0]&0xffffffff | 255<<32
	b, err := DecodeBinary(words)
	if err != nil {
		t.Fatal(err)
	}
	if b.RegCount != 255 {
		t.Fatalf("DecodeBinary: .reg %d, want 255", b.RegCount)
	}
	if err := b.Validate(); err == nil {
		t.Error("DecodeBinary: .reg 255 validated")
	}
	b.RegCount = MaxRegsPerThread
	if err := b.Validate(); err != nil {
		t.Errorf("DecodeBinary: .reg %d refused: %v", MaxRegsPerThread, err)
	}
}
