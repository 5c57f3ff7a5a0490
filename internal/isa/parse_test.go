package isa

import (
	"reflect"
	"strings"
	"testing"
)

const sampleKernel = `
.kernel sample
.reg 8
# header comment
entry:
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    imad  r2, r1, c[0], r0
    movi  r3, 0
loop:
    ld.global r4, [r2+16]
    iadd  r3, r3, r4
    iadd  r2, r2, c[1]
    isetp.lt p0, r2, c[2]
@p0 bra   loop
    st.global [r2-4], r3
    exit
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sampleKernel)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Name != "sample" {
		t.Errorf("Name = %q, want sample", p.Name)
	}
	if p.RegCount != 8 {
		t.Errorf("RegCount = %d, want 8", p.RegCount)
	}
	if len(p.Instrs) != 11 {
		t.Fatalf("got %d instructions, want 11", len(p.Instrs))
	}
	if got := p.Labels["entry"]; got != 0 {
		t.Errorf("entry label at %d, want 0", got)
	}
	if got := p.Labels["loop"]; got != 4 {
		t.Errorf("loop label at %d, want 4", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if instrs, labels := Count(sampleKernel); instrs != len(p.Instrs) || labels != len(p.Labels) {
		t.Errorf("Count = %d instructions, %d labels; Parse found %d, %d", instrs, labels, len(p.Instrs), len(p.Labels))
	}
}

func TestParseBranchResolution(t *testing.T) {
	p := MustParse(sampleKernel)
	bra := p.Instrs[8]
	if bra.Op != OpBra {
		t.Fatalf("instr 8 is %v, want bra", bra.Op)
	}
	if bra.Target != 4 {
		t.Errorf("branch target = %d, want 4", bra.Target)
	}
	if !bra.Guard.Guarded() || bra.Guard.Reg != 0 || bra.Guard.Neg {
		t.Errorf("branch guard = %+v, want @p0", bra.Guard)
	}
}

func TestParseMemoryOperands(t *testing.T) {
	p := MustParse(sampleKernel)
	ld := p.Instrs[4]
	if ld.Op != OpLd || ld.Space != SpaceGlobal {
		t.Fatalf("instr 4 = %v space %v, want ld.global", ld.Op, ld.Space)
	}
	if ld.MemOff != 16 {
		t.Errorf("ld offset = %d, want 16", ld.MemOff)
	}
	if ld.Srcs[0].Reg != 2 {
		t.Errorf("ld base = %v, want r2", ld.Srcs[0])
	}
	st := p.Instrs[9]
	if st.Op != OpSt || st.MemOff != -4 {
		t.Errorf("st = %v off %d, want st off -4", st.Op, st.MemOff)
	}
	if st.Srcs[1].Reg != 3 {
		t.Errorf("st value = %v, want r3", st.Srcs[1])
	}
}

func TestParseISetp(t *testing.T) {
	p := MustParse(sampleKernel)
	in := p.Instrs[7]
	if in.Op != OpISetp || in.Cmp != CmpLT || in.SetPred != 0 {
		t.Errorf("isetp parsed as %v cmp=%v pd=%d", in.Op, in.Cmp, in.SetPred)
	}
	if in.Srcs[0].Reg != 2 || in.Srcs[1].Kind != OpdConst || in.Srcs[1].CIdx != 2 {
		t.Errorf("isetp operands wrong: %v, %v", in.Srcs[0], in.Srcs[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown op", ".kernel k\n frob r1, r2\n exit", "unknown mnemonic"},
		{"bad reg", ".kernel k\n mov r99, r1\n exit", "invalid register"},
		{"undefined label", ".kernel k\n bra nowhere\n exit", "undefined label"},
		{"duplicate label", ".kernel k\na:\na:\n exit", "duplicate label"},
		{"bad operand count", ".kernel k\n iadd r1, r2\n exit", "takes 3 operands"},
		{"bad memref", ".kernel k\n ld.global r1, r2\n exit", "memory reference"},
		{"bad space", ".kernel k\n ld.local r1, [r2]\n exit", "unknown memory space"},
		{"bad cmp", ".kernel k\n isetp.zz p0, r1, r2\n exit", "unknown comparison"},
		{"bad predicate", ".kernel k\n isetp.lt p9, r1, r2\n exit", "predicate"},
		{"guard alone", ".kernel k\n@p0\n exit", "guard without instruction"},
		{"reg over declared", ".kernel k\n.reg 2\n mov r5, r1\n exit", "beyond declared"},
		{"guarded sel", ".kernel k\n@p0 sel r6, r4, r5, p1\n exit", "sel takes no guard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.src)
			if err == nil {
				err = p.Validate()
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// metaKernel has release metadata, guards of both signs, a negative
// immediate, a constant, a special register and a sel.
const metaKernel = `
.kernel meta
.reg 10
    .pir 0x249
    movi r1, -123456
    s2r  r2, %ctaid.x
    imad r3, r1, c[5], r2
    isetp.ge p2, r3, r1
@!p2 iadd r4, r3, 7
    .pbr r1, r3
    ld.shared r5, [r4+36]
    st.global [r5-4], r3
l:
@p2 bra l
    sel  r6, r4, r5, p1
    rcp  r7, r6
    exit
`

func TestPrintParseRoundTrip(t *testing.T) {
	for _, src := range []string{sampleKernel, metaKernel} {
		p := MustParse(src)
		text := p.String()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse printed program: %v\n%s", err, text)
		}
		if len(q.Instrs) != len(p.Instrs) {
			t.Fatalf("round trip length %d != %d", len(q.Instrs), len(p.Instrs))
		}
		for i := range p.Instrs {
			if !reflect.DeepEqual(p.Instrs[i], q.Instrs[i]) {
				t.Errorf("%s instr %d: %q != %q", p.Name, i, p.Instrs[i], q.Instrs[i])
			}
		}
	}
}

func TestParseMetaInstructions(t *testing.T) {
	src := ".kernel k\n .pir 0x1ff\n mov r1, r2\n .pbr r3, r7\n exit"
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Instrs[0].Op != OpPir || p.Instrs[0].PirFlags != 0x1ff {
		t.Errorf("pir = %v flags %#x", p.Instrs[0].Op, p.Instrs[0].PirFlags)
	}
	pbr := p.Instrs[2]
	if pbr.Op != OpPbr || len(pbr.PbrRegs) != 2 || pbr.PbrRegs[0] != 3 || pbr.PbrRegs[1] != 7 {
		t.Errorf("pbr = %v regs %v", pbr.Op, pbr.PbrRegs)
	}
}

func TestParseNegatedGuard(t *testing.T) {
	p := MustParse(".kernel k\nl:\n@!p2 bra l\n exit")
	g := p.Instrs[0].Guard
	if !g.Guarded() || g.Reg != 2 || !g.Neg {
		t.Errorf("guard = %+v, want @!p2", g)
	}
}

func TestParseSel(t *testing.T) {
	p := MustParse(".kernel k\n sel r1, r2, r3, p1\n exit")
	in := p.Instrs[0]
	if in.Op != OpSel || in.Guard.Reg != 1 || in.Guard.Neg {
		t.Errorf("sel = %v guard %+v", in.Op, in.Guard)
	}
	if in.NSrc != 2 || in.Srcs[0].Reg != 2 || in.Srcs[1].Reg != 3 {
		t.Errorf("sel operands: %v %v", in.Srcs[0], in.Srcs[1])
	}
}

func TestRegCountInferred(t *testing.T) {
	p := MustParse(".kernel k\n mov r5, r1\n exit")
	if p.RegCount != 6 {
		t.Errorf("inferred RegCount = %d, want 6", p.RegCount)
	}
}

func TestParseHexConstIndex(t *testing.T) {
	p := MustParse(".kernel k\n mov r1, c[0x7]\n exit")
	if got := p.Instrs[0].Srcs[0]; got.Kind != OpdConst || got.CIdx != 7 {
		t.Errorf("operand = %v, want c[7]", got)
	}
}

func TestParseRZ(t *testing.T) {
	p := MustParse(".kernel k\n iadd r1, rz, r2\n exit")
	in := p.Instrs[0]
	if in.Srcs[0].Reg != RZ {
		t.Errorf("src0 = %v, want rz", in.Srcs[0])
	}
	if in.Srcs[0].IsReg() {
		t.Error("rz must not count as an allocatable register operand")
	}
	regs := in.SrcRegs(nil)
	if len(regs) != 1 || regs[0] != 2 {
		t.Errorf("SrcRegs = %v, want [r2]", regs)
	}
}
