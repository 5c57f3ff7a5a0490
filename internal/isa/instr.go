package isa

import (
	"fmt"
	"strings"
)

// MaxSrcOperands is the maximum number of register source operands per
// instruction (CUDA's three-operand limit, §6.1), and therefore the width
// of each pir flag group.
const MaxSrcOperands = 3

// Instr is one decoded instruction. Instructions are identified by their
// index (PC) in the program; all PCs are instruction-granular (the real
// machine's 8-byte granularity is abstracted away, every instruction being
// one 64-bit word).
type Instr struct {
	PC    int
	Op    Opcode
	Guard Pred // optional @p / @!p execution guard

	Dst  Operand                 // destination register (if Op.WritesReg)
	Srcs [MaxSrcOperands]Operand // source operands, in encoding order
	// Rel is release metadata, filled by the compiler (§6.2). Rel[i]
	// mirrors the pir bit for source slot i: release Srcs[i].Reg after
	// this read.
	Rel  [MaxSrcOperands]bool
	NSrc int // number of used source slots

	// ISetp fields.
	SetPred int8  // destination predicate register, -1 if none
	Cmp     CmpOp // comparison for isetp

	// Memory fields (ld/st). The address is Srcs[0] (base register or RZ)
	// plus Srcs[0].Imm? No — the offset rides in MemOff to keep operand
	// slots uniform. For st, the value to store is Srcs[1].
	Space  MemSpace
	MemOff int32

	// Branch fields. TargetLabel is what the parser saw; Target is the
	// resolved instruction PC. Reconv is the reconvergence PC (immediate
	// post-dominator) filled in by the CFG pass; -1 means not computed.
	TargetLabel string
	Target      int
	Reconv      int

	// PirFlags is the 54-bit payload of a pir metadata instruction:
	// eighteen 3-bit groups covering the next 18 instructions, group g in
	// bits [3g, 3g+3), bit i of a group being the release flag of source
	// slot i. The covered instructions also carry the same bits in Rel.
	PirFlags uint64

	// PbrRegs is the register list of a pbr metadata instruction.
	PbrRegs []RegID
}

// PirGroupCount is the number of following instructions covered by one
// pir metadata instruction (§6.2: 54 payload bits / 3 bits each).
const PirGroupCount = 18

// PirGroup extracts the 3-bit release group for the g-th instruction
// after the pir.
func PirGroup(flags uint64, g int) [MaxSrcOperands]bool {
	var out [MaxSrcOperands]bool
	grp := flags >> (3 * uint(g))
	for i := 0; i < MaxSrcOperands; i++ {
		out[i] = grp&(1<<uint(i)) != 0
	}
	return out
}

// PackPirGroup sets the 3-bit release group for the g-th covered
// instruction in flags and returns the result.
func PackPirGroup(flags uint64, g int, rel [MaxSrcOperands]bool) uint64 {
	var grp uint64
	for i := 0; i < MaxSrcOperands; i++ {
		if rel[i] {
			grp |= 1 << uint(i)
		}
	}
	return flags | grp<<(3*uint(g))
}

// SrcRegs appends the architected registers read by the instruction to
// dst and returns it. RZ is excluded.
func (in *Instr) SrcRegs(dst []RegID) []RegID {
	for i := 0; i < in.NSrc; i++ {
		if in.Srcs[i].IsReg() {
			dst = append(dst, in.Srcs[i].Reg)
		}
	}
	return dst
}

// DstReg returns the written architected register and true, or 0 and
// false when the instruction writes no general register (or writes RZ,
// which is a discard).
func (in *Instr) DstReg() (RegID, bool) {
	if in.Op.WritesReg() && in.Dst.IsReg() {
		return in.Dst.Reg, true
	}
	return 0, false
}

// ReadsPred reports whether execution consults predicate register p.
func (in *Instr) ReadsPred(p int8) bool {
	return in.Guard.Guarded() && in.Guard.Reg == p
}

// IsLongLatency reports whether the instruction should demote its warp to
// the pending queue of the two-level scheduler while it completes
// (global/spill memory and SFU ops).
func (in *Instr) IsLongLatency() bool {
	if in.Op.IsMemory() {
		return in.Space != SpaceShared
	}
	return in.Op == OpRcp
}

func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Guard.String())
	switch in.Op {
	case OpPir:
		fmt.Fprintf(&b, ".pir %#x", in.PirFlags)
	case OpPbr:
		b.WriteString(".pbr")
		for i, r := range in.PbrRegs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte(' ')
			b.WriteString(r.String())
		}
	case OpLd:
		fmt.Fprintf(&b, "ld.%s %s, [%s%+d]", in.Space, in.Dst, in.Srcs[0], in.MemOff)
	case OpSt:
		fmt.Fprintf(&b, "st.%s [%s%+d], %s", in.Space, in.Srcs[0], in.MemOff, in.Srcs[1])
	case OpISetp:
		fmt.Fprintf(&b, "isetp.%s p%d, %s, %s", in.Cmp, in.SetPred, in.Srcs[0], in.Srcs[1])
	case OpBra:
		lbl := in.TargetLabel
		if lbl == "" {
			lbl = fmt.Sprintf("@%d", in.Target)
		}
		fmt.Fprintf(&b, "bra %s", lbl)
	case OpBar, OpExit, OpNop:
		b.WriteString(in.Op.String())
	default:
		b.WriteString(in.Op.String())
		b.WriteByte(' ')
		b.WriteString(in.Dst.String())
		for i := 0; i < in.NSrc; i++ {
			fmt.Fprintf(&b, ", %s", in.Srcs[i])
		}
	}
	return b.String()
}
