package isa

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Program is an assembled kernel: a flat instruction list with resolved
// branch targets. The compiler rewrites Programs in place (inserting
// metadata instructions, renumbering PCs) via Rebuild.
type Program struct {
	Name string
	// RegCount is the number of architected registers the kernel declares
	// (.reg directive) — the paper's "# Regs/Kernel" column of Table 1.
	RegCount int
	Instrs   []*Instr
	// Labels maps label name to instruction PC.
	Labels map[string]int
}

// Clone returns a deep copy of the program. Compiler passes operate on
// clones so the pristine kernel remains available for baseline runs.
// The copied instructions share one exact-length slab, and so do their
// pbr register lists.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, RegCount: p.RegCount, Labels: make(map[string]int, len(p.Labels))}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	nPbr := 0
	for _, in := range p.Instrs {
		nPbr += len(in.PbrRegs)
	}
	var pbrRegs []RegID
	if nPbr > 0 {
		pbrRegs = make([]RegID, 0, nPbr)
	}
	slab := make([]Instr, len(p.Instrs))
	q.Instrs = make([]*Instr, len(p.Instrs))
	for i, in := range p.Instrs {
		slab[i] = *in
		slab[i].PbrRegs = nil
		if len(in.PbrRegs) > 0 {
			at := len(pbrRegs)
			pbrRegs = append(pbrRegs, in.PbrRegs...)
			slab[i].PbrRegs = pbrRegs[at:len(pbrRegs):len(pbrRegs)]
		}
		q.Instrs[i] = &slab[i]
	}
	return q
}

// Rebuild renumbers PCs after instruction insertion/removal and re-resolves
// branch targets from labels. Callers that insert instructions must keep
// Labels pointing at the right instructions by updating them before the
// call; RebuildFromPCMap is the usual helper.
func (p *Program) Rebuild() error {
	for pc, in := range p.Instrs {
		in.PC = pc
	}
	for _, in := range p.Instrs {
		if in.Op != OpBra {
			continue
		}
		if in.TargetLabel != "" {
			t, ok := p.Labels[in.TargetLabel]
			if !ok {
				return fmt.Errorf("isa: %s: undefined label %q", p.Name, in.TargetLabel)
			}
			in.Target = t
		}
		if in.Target < 0 || in.Target >= len(p.Instrs) {
			return fmt.Errorf("isa: %s: branch at pc %d targets %d, out of range", p.Name, in.PC, in.Target)
		}
	}
	return nil
}

// MaxUsedReg returns the highest architected register id referenced by the
// program (excluding RZ), or -1 if no registers are used.
func (p *Program) MaxUsedReg() int {
	max := -1
	var scratch [MaxSrcOperands]RegID
	for _, in := range p.Instrs {
		for _, r := range in.SrcRegs(scratch[:0]) {
			if int(r) > max {
				max = int(r)
			}
		}
		if d, ok := in.DstReg(); ok && int(d) > max {
			max = int(d)
		}
	}
	return max
}

// UsedRegs returns the sorted set of architected registers referenced.
func (p *Program) UsedRegs() []RegID {
	var seen uint64 // bit r: register r is referenced (RZ excluded)
	var scratch [MaxSrcOperands]RegID
	for _, in := range p.Instrs {
		for _, r := range in.SrcRegs(scratch[:0]) {
			seen |= 1 << r
		}
		if d, ok := in.DstReg(); ok {
			seen |= 1 << d
		}
	}
	seen &^= 1 << RZ
	if seen == 0 {
		return nil
	}
	out := make([]RegID, 0, bits.OnesCount64(seen))
	for ; seen != 0; seen &= seen - 1 {
		out = append(out, RegID(bits.TrailingZeros64(seen)))
	}
	return out
}

// Validate performs structural sanity checks: resolved branches, operand
// counts, register ids in range. The simulator refuses unvalidated code.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: %s: empty program", p.Name)
	}
	if p.RegCount < 0 || p.RegCount > MaxRegsPerThread {
		return fmt.Errorf("isa: %s: .reg %d out of range 0..%d", p.Name, p.RegCount, MaxRegsPerThread)
	}
	for pc, in := range p.Instrs {
		if in.PC != pc {
			return fmt.Errorf("isa: %s: pc mismatch at %d (got %d); call Rebuild", p.Name, pc, in.PC)
		}
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s: invalid opcode at pc %d", p.Name, pc)
		}
		if in.Op == OpBra && (in.Target < 0 || in.Target >= len(p.Instrs)) {
			return fmt.Errorf("isa: %s: unresolved branch at pc %d", p.Name, pc)
		}
		if in.NSrc < 0 || in.NSrc > MaxSrcOperands {
			return fmt.Errorf("isa: %s: bad source count %d at pc %d", p.Name, in.NSrc, pc)
		}
		for i := 0; i < in.NSrc; i++ {
			if in.Srcs[i].Kind != OpdReg {
				continue
			}
			if r := in.Srcs[i].Reg; r > RZ {
				return fmt.Errorf("isa: %s: register out of range at pc %d", p.Name, pc)
			} else if r != RZ && int(r) >= p.RegCount {
				return fmt.Errorf("isa: %s: pc %d reads r%d beyond declared .reg %d", p.Name, pc, r, p.RegCount)
			}
		}
		if d, ok := in.DstReg(); ok && d > RZ {
			return fmt.Errorf("isa: %s: register out of range at pc %d", p.Name, pc)
		} else if ok && int(d) >= p.RegCount {
			return fmt.Errorf("isa: %s: pc %d writes r%d beyond declared .reg %d", p.Name, pc, d, p.RegCount)
		}
		for _, r := range in.PbrRegs {
			if r == RZ || int(r) >= p.RegCount {
				return fmt.Errorf("isa: %s: pc %d pbr releases r%d beyond declared .reg %d", p.Name, pc, r, p.RegCount)
			}
		}
	}
	last := p.Instrs[len(p.Instrs)-1]
	terminated := (last.Op == OpExit || last.Op == OpBra) && !last.Guard.Guarded()
	if !terminated {
		return fmt.Errorf("isa: %s: program does not end in an unconditional exit or branch", p.Name)
	}
	return nil
}

// String renders the program as parseable assembly.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n.reg %d\n", p.Name, p.RegCount)
	byPC := make(map[int][]string)
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	for pc, in := range p.Instrs {
		if names := byPC[pc]; names != nil {
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&b, "%s:\n", n)
			}
		}
		fmt.Fprintf(&b, "    %s\n", in)
	}
	return b.String()
}
