package isa

import "fmt"

// The paper keeps metadata instructions compliant with the 64-bit CUDA
// instruction format: a 10-bit opcode split into a four-bit and a six-bit
// field (Fermi encoding, §6.2), leaving 54 payload bits. We place the
// four-bit half in bits [0,4) and the six-bit half in bits [58,64), with
// the payload in bits [4,58).
const (
	// PbrMaxRegs is the number of 6-bit register ids one pbr carries (§6.2).
	PbrMaxRegs = 9
	// PirPayloadBits is the number of payload bits (18 × 3).
	PirPayloadBits = 54

	pirOpcode10 = 0x2a5 // reserved 10-bit register-release opcodes
	pbrOpcode10 = 0x2a6

	payloadShift = 4
	payloadMask  = (uint64(1) << PirPayloadBits) - 1
)

func packMetaWord(op10 uint16, payload uint64) uint64 {
	lo := uint64(op10 & 0xf)
	hi := uint64(op10>>4) & 0x3f
	return lo | payload<<payloadShift | hi<<58
}

func metaOpcode10(word uint64) uint16 {
	return uint16(word&0xf) | uint16(word>>58)<<4
}

func metaPayload(word uint64) uint64 {
	return (word >> payloadShift) & payloadMask
}

// EncodePir packs a pir metadata instruction's 54 flag bits into its
// 64-bit instruction word.
func EncodePir(flags uint64) (uint64, error) {
	if flags&^payloadMask != 0 {
		return 0, fmt.Errorf("isa: pir payload exceeds %d bits", PirPayloadBits)
	}
	return packMetaWord(pirOpcode10, flags), nil
}

// EncodePbr packs up to nine 6-bit register ids into a pbr instruction
// word. Slot i occupies payload bits [6i, 6i+6); unused slots hold RZ,
// which is never a release target and therefore acts as "empty".
func EncodePbr(regs []RegID) (uint64, error) {
	if len(regs) == 0 || len(regs) > PbrMaxRegs {
		return 0, fmt.Errorf("isa: pbr carries 1..%d registers, got %d", PbrMaxRegs, len(regs))
	}
	var payload uint64
	for i := 0; i < PbrMaxRegs; i++ {
		r := RZ
		if i < len(regs) {
			r = regs[i]
			if r >= RZ {
				return 0, fmt.Errorf("isa: pbr register r%d out of range", r)
			}
		}
		payload |= uint64(r&0x3f) << (6 * uint(i))
	}
	return packMetaWord(pbrOpcode10, payload), nil
}

// DecodeMeta decodes a 64-bit metadata instruction word. It returns the
// opcode (OpPir or OpPbr) plus either the flag payload or the register
// list. Non-metadata words yield OpNop and ok=false.
func DecodeMeta(word uint64) (op Opcode, flags uint64, regs []RegID, ok bool) {
	switch metaOpcode10(word) {
	case pirOpcode10:
		return OpPir, metaPayload(word), nil, true
	case pbrOpcode10:
		payload := metaPayload(word)
		for i := 0; i < PbrMaxRegs; i++ {
			r := RegID(payload >> (6 * uint(i)) & 0x3f)
			if r != RZ {
				regs = append(regs, r)
			}
		}
		return OpPbr, 0, regs, true
	}
	return OpNop, 0, nil, false
}

// MetaWord returns the 64-bit encoding of a metadata instruction, or an
// error if in is not pir/pbr.
func MetaWord(in *Instr) (uint64, error) {
	switch in.Op {
	case OpPir:
		return EncodePir(in.PirFlags)
	case OpPbr:
		return EncodePbr(in.PbrRegs)
	}
	return 0, fmt.Errorf("isa: %s is not a metadata instruction", in.Op)
}
