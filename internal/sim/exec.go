package sim

import (
	"math"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
)

// lanes is one warp-wide operand or result.
type lanes = [arch.WarpSize]uint32

// evalALU computes the lane-wise result of a non-memory, register-writing
// instruction into out (its writeback slot), from the SM's operand
// scratch. Predicates and control flow are handled by the issue logic;
// this is pure data computation. Every register-writing opcode but ld
// has a case, so every lane of out is written.
func evalALU(in *isa.Instr, src *[isa.MaxSrcOperands]lanes, sel uint32, out *lanes) {
	for l := 0; l < arch.WarpSize; l++ {
		a, b, c := src[0][l], src[1][l], src[2][l]
		switch in.Op {
		case isa.OpMov, isa.OpMovi, isa.OpS2R:
			out[l] = a
		case isa.OpIAdd:
			out[l] = a + b
		case isa.OpISub:
			out[l] = a - b
		case isa.OpIMul:
			out[l] = a * b
		case isa.OpIMad:
			out[l] = a*b + c
		case isa.OpAnd:
			out[l] = a & b
		case isa.OpOr:
			out[l] = a | b
		case isa.OpXor:
			out[l] = a ^ b
		case isa.OpShl:
			out[l] = a << (b & 31)
		case isa.OpShr:
			out[l] = a >> (b & 31)
		case isa.OpSel:
			if sel&(1<<uint(l)) != 0 {
				out[l] = a
			} else {
				out[l] = b
			}
		case isa.OpFAdd:
			out[l] = f32bits(f32(a) + f32(b))
		case isa.OpFMul:
			out[l] = f32bits(f32(a) * f32(b))
		case isa.OpFFma:
			out[l] = f32bits(f32(a)*f32(b) + f32(c))
		case isa.OpRcp:
			out[l] = f32bits(1 / f32(a))
		}
	}
}

// evalCmp computes an isetp lane mask over signed operands.
func evalCmp(cmp isa.CmpOp, a, b *lanes) uint32 {
	var m uint32
	for l := 0; l < arch.WarpSize; l++ {
		if cmp.Eval(int32(a[l]), int32(b[l])) {
			m |= 1 << uint(l)
		}
	}
	return m
}

func f32(b uint32) float32     { return math.Float32frombits(b) }
func f32bits(f float32) uint32 { return math.Float32bits(f) }

// specialValue materializes an s2r source for a warp into out (zero
// for a special register it does not know).
func (s *SM) specialValue(w *warp, sp isa.Special, out *lanes) {
	*out = lanes{}
	for l := 0; l < arch.WarpSize; l++ {
		switch sp {
		case isa.SpecTidX:
			out[l] = uint32(w.idInCTA*arch.WarpSize + l)
		case isa.SpecCtaidX:
			out[l] = uint32(w.cta.ctaID)
		case isa.SpecNtidX:
			out[l] = uint32(s.spec.ThreadsPerCTA)
		case isa.SpecNctaid:
			out[l] = uint32(s.spec.GridCTAs)
		case isa.SpecLane:
			out[l] = uint32(l)
		case isa.SpecWarpID:
			out[l] = uint32(w.idInCTA)
		}
	}
}
