// Package isa defines the instruction set of the simulated GPU: a small
// Fermi-flavoured assembly with up to three register source operands per
// instruction, predicated execution, SIMT branches, and the two metadata
// instructions introduced by the paper — the per-instruction release flag
// (pir) and the per-branch release flag (pbr).
//
// The package provides a textual assembler (Parse), a 64-bit binary
// encoding (Encode/Decode) that follows the paper's metadata layout
// (10-bit opcode split 4+6, 54 payload bits), and the Program container
// consumed by the compiler and the simulator.
package isa

import "fmt"

// Opcode identifies an operation. The zero value is OpNop.
type Opcode uint16

// Machine opcodes. Arithmetic is 32-bit; F-prefixed opcodes interpret
// register bits as float32.
const (
	OpNop   Opcode = iota
	OpMov          // mov   rd, ra           — copy register
	OpMovi         // movi  rd, imm          — load immediate
	OpS2R          // s2r   rd, %special     — read special register
	OpIAdd         // iadd  rd, ra, rb
	OpISub         // isub  rd, ra, rb
	OpIMul         // imul  rd, ra, rb
	OpIMad         // imad  rd, ra, rb, rc   — rd = ra*rb + rc
	OpAnd          // and   rd, ra, rb
	OpOr           // or    rd, ra, rb
	OpXor          // xor   rd, ra, rb
	OpShl          // shl   rd, ra, rb
	OpShr          // shr   rd, ra, rb       — logical shift right
	OpISetp        // isetp.cc pd, ra, rb    — set predicate from compare
	OpSel          // sel   rd, ra, rb, pN   — rd = pN ? ra : rb (pN kept in Guard)
	OpFAdd         // fadd  rd, ra, rb
	OpFMul         // fmul  rd, ra, rb
	OpFFma         // ffma  rd, ra, rb, rc   — rd = ra*rb + rc (float)
	OpRcp          // rcp   rd, ra           — SFU reciprocal
	OpLd           // ld.space rd, [ra+imm]
	OpSt           // st.space [ra+imm], rs
	OpBra          // bra   label            — (possibly predicated) branch
	OpBar          // bar                    — CTA-wide barrier
	OpExit         // exit                   — warp terminates
	OpPir          // .pir  <18 x 3-bit release flags> (metadata)
	OpPbr          // .pbr  <up to 9 x 6-bit register ids> (metadata)
	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpMovi: "movi", OpS2R: "s2r",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIMad: "imad",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpISetp: "isetp", OpSel: "sel",
	OpFAdd: "fadd", OpFMul: "fmul", OpFFma: "ffma", OpRcp: "rcp",
	OpLd: "ld", OpSt: "st",
	OpBra: "bra", OpBar: "bar", OpExit: "exit",
	OpPir: ".pir", OpPbr: ".pbr",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o < opCount }

// IsMeta reports whether o is one of the paper's metadata instructions.
// Metadata instructions are fetched and decoded but never issued to an
// execution unit (§6.2, §7.2).
func (o Opcode) IsMeta() bool { return o == OpPir || o == OpPbr }

// IsMemory reports whether o accesses a memory space.
func (o Opcode) IsMemory() bool { return o == OpLd || o == OpSt }

// WritesReg reports whether the opcode produces a general-register result.
func (o Opcode) WritesReg() bool {
	switch o {
	case OpMov, OpMovi, OpS2R, OpIAdd, OpISub, OpIMul, OpIMad,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSel,
		OpFAdd, OpFMul, OpFFma, OpRcp, OpLd:
		return true
	}
	return false
}

// Latency returns the fixed execution latency in cycles for non-memory
// opcodes (memory latency comes from the memory model). The values follow
// the Fermi-like configuration used by the paper's GPGPU-Sim baseline.
func (o Opcode) Latency() int {
	switch o {
	case OpIMul, OpIMad, OpFAdd, OpFMul, OpFFma:
		return 6
	case OpRcp:
		return 16 // SFU
	case OpBar:
		return 1
	default:
		return 4
	}
}

// CmpOp is the comparison condition of an isetp instruction.
type CmpOp uint8

// Comparison conditions.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Eval applies the comparison to signed 32-bit operands.
func (c CmpOp) Eval(a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// MemSpace is the address space of a load or store.
type MemSpace uint8

// Address spaces. SpaceSpill is the system-reserved spill region used by
// the compiler-spill baseline and by the GPU-shrink spill fallback (§8.1).
const (
	SpaceGlobal MemSpace = iota
	SpaceShared
	SpaceSpill
)

var spaceNames = [...]string{"global", "shared", "spill"}

func (s MemSpace) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}
