package sim

import (
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// tryIssue attempts to issue the next instruction of a warp. It returns
// true when the scheduler slot was consumed (an instruction issued, or a
// metadata instruction occupied the fetch/decode stage).
func (s *SM) tryIssue(w *warp) bool {
	// Pre-process metadata instructions (§7.2). A pir that hits in the
	// release flag cache is skipped for free (the fetch stage probes the
	// cache and bumps the PC); a miss costs this warp's slot to fetch and
	// decode it. A pbr always decodes, performing its releases.
	for {
		in := s.prog.Instrs[w.pc()]
		if in.Op == isa.OpPir {
			if _, hit := s.fcache.Probe(in.PC); hit {
				s.busy = true
				w.advance()
				continue
			}
			s.res.DecodedPirs++
			s.fcache.Insert(in.PC, in.PirFlags)
			w.advance()
			return true
		}
		if in.Op == isa.OpPbr {
			s.res.DecodedPbrs++
			for _, r := range in.PbrRegs {
				s.release(w, r)
			}
			w.advance()
			return true
		}
		break
	}
	in := s.prog.Instrs[w.pc()]

	// Scoreboard: in-order issue blocks on RAW, WAW and predicate
	// hazards. This is the one way an attempt fails without changing
	// state (see sleep.go).
	if s.hazard(w, in) {
		s.res.Stalls.Hazard++
		return false
	}
	if d, ok := in.DstReg(); ok && s.needsAlloc(w, d) {
		bank := arch.BankOf(int(d))
		// An instruction whose own pir bits free a register in the target
		// bank is register-neutral there: it bypasses both gates (release
		// precedes allocation within an instruction, so a full bank still
		// serves it, and gating it would block the very releases that
		// refill the bank).
		if !s.releasesInBank(w, in, bank) {
			// GPU-shrink throttling (§8.1): under register pressure the
			// drain CTA gets priority on fresh physical registers.
			// Instructions that write in place or do not write are never
			// gated — they only return registers to the pool.
			if s.table.IssueAllocates() {
				if !s.gov.MayIssue(w.cta.slot, bank, s.file.FreeTotal(), s.file.FreeBanks()) {
					s.allocStalled = true
					return false
				}
			}
			if s.file.FreeInBank(bank) == 0 {
				if s.table.IssueAllocates() {
					s.gov.OnAllocBlocked(w.cta.slot, bank)
				}
				s.allocStalled = true
				s.res.Stalls.Bank++
				return false
			}
		}
	}
	// Structural: memory port and MSHR capacity.
	longMem := in.Op.IsMemory() && in.Space != isa.SpaceShared
	if longMem {
		if !s.mem.canAccept() {
			s.res.Stalls.MemPort++
			s.busy = true
			return false
		}
		// Fault seam of the memory port: the request is about to be
		// accepted. An injected error fails the run as a memory fault
		// (checked at the end of the cycle) instead of issuing.
		if err := s.injectFault(FaultSiteMemAccept); err != nil {
			s.failMem(err)
			s.res.Stalls.MemPort++
			return false
		}
	}

	s.issue(w, in)
	return true
}

// scoreMask is one instruction's scoreboard footprint: the registers
// it reads or writes and the predicates it reads or sets. A launch
// computes its program's masks once (scoreMasks), so the hazard test is
// one mask AND per instruction.
type scoreMask struct {
	regs  liveness.RegSet
	preds uint8
}

// hazard reports a scoreboard conflict for the next instruction.
func (s *SM) hazard(w *warp, in *isa.Instr) bool {
	m := &s.masks[in.PC]
	return w.busyRegs&m.regs != 0 || w.busyPreds&m.preds != 0
}

// scoreMasks returns the scoreboard footprint of every instruction of
// p, indexed by PC.
func scoreMasks(p *isa.Program) []scoreMask {
	out := make([]scoreMask, len(p.Instrs))
	for pc, in := range p.Instrs {
		m := &out[pc]
		for i := 0; i < in.NSrc; i++ {
			if in.Srcs[i].IsReg() {
				m.regs = m.regs.Add(in.Srcs[i].Reg)
			}
		}
		if d, ok := in.DstReg(); ok {
			m.regs = m.regs.Add(d)
		}
		if in.Guard.Guarded() {
			m.preds |= 1 << uint(in.Guard.Reg)
		}
		if in.Op == isa.OpISetp {
			m.preds |= 1 << uint(in.SetPred)
		}
	}
	return out
}

// needsAlloc reports whether writing r will require a fresh physical
// register.
func (s *SM) needsAlloc(w *warp, r isa.RegID) bool {
	if !s.table.IssueAllocates() {
		return false
	}
	// ModeHWOnly full redefinition frees before reallocating, so a mapped
	// register never needs net-new space; only unmapped ones do. Mapped
	// uses the uncounted peek so stall retries do not inflate the
	// table-access energy.
	return !s.table.Mapped(w.slot, r)
}

// releasesInBank reports whether the instruction's pir bits will free a
// currently-mapped register residing in the given bank.
func (s *SM) releasesInBank(w *warp, in *isa.Instr, bank int) bool {
	for i := 0; i < in.NSrc; i++ {
		if !in.Rel[i] || !in.Srcs[i].IsReg() {
			continue
		}
		r := in.Srcs[i].Reg
		if arch.BankOf(int(r)) == bank && s.table.Mapped(w.slot, r) {
			return true
		}
	}
	return false
}

// release performs a pir/pbr release and updates the balance counter.
func (s *SM) release(w *warp, r isa.RegID) {
	if s.table.Release(w.slot, r) {
		s.gov.OnRelease(w.cta.slot, arch.BankOf(int(r)))
		s.traceMap(w.slot, r, false)
	}
}

// issue executes one real instruction: operands are read (and released),
// results scheduled for writeback, control flow resolved.
func (s *SM) issue(w *warp, in *isa.Instr) {
	s.res.Instrs++
	active := w.activeMask()
	execMask := active
	if in.Guard.Guarded() && in.Op != isa.OpSel {
		execMask &= w.predMask(in.Guard)
	}

	// Operand collection: read sources through the backend into the
	// operand scratch, counting bank conflicts among register operands
	// (§7.1: operands in the same bank serialize). Accesses the backend
	// served outside the banked RF (cache hits, shared-memory-resident
	// registers) report Bank -1 and cannot conflict; demoted-register
	// accesses add their latency penalty to the dependent-use path
	// instead. A slot the instruction does not fill reads as zero.
	src := &s.operands
	var bankUse [arch.NumBanks]int
	renamed := false
	penalty := 0
	for i := range src {
		if i >= in.NSrc {
			src[i] = lanes{}
			continue
		}
		op := &in.Srcs[i]
		switch op.Kind {
		case isa.OpdReg:
			if op.Reg == isa.RZ {
				src[i] = lanes{}
				continue
			}
			rd, ok := s.table.ReadOperand(w.slot, op.Reg)
			if ok {
				src[i] = *s.table.ReadValue(rd.Phys)
				if rd.Bank >= 0 {
					bankUse[rd.Bank]++
				}
				penalty += rd.Penalty
			} else {
				src[i] = lanes{}
				if s.cfg.PoisonReleased {
					// An unmapped register was released by a pir/pbr or
					// never written; either way the read would yield zero
					// and never touch the poisoned value, so it is caught
					// here instead.
					s.failInvariant(w, in.PC, fmt.Sprintf("read of unmapped register %v (released or never written)", op.Reg))
				}
			}
			renamed = true
		case isa.OpdImm:
			v := uint32(op.Imm)
			for l := range src[i] {
				src[i][l] = v
			}
		case isa.OpdConst:
			var v uint32
			if int(op.CIdx) < len(s.spec.Consts) {
				v = s.spec.Consts[op.CIdx]
			}
			for l := range src[i] {
				src[i][l] = v
			}
		case isa.OpdSpecial:
			s.specialValue(w, op.Spec, &src[i])
		default:
			src[i] = lanes{}
		}
	}
	conflicts := 0
	for _, n := range bankUse {
		if n > 1 {
			conflicts += n - 1
		}
	}
	extra := conflicts + penalty
	if renamed && s.table.Renames() {
		extra += s.cfg.RenameLatency
	}

	// Eager release after the operand read (§6.1, pir semantics).
	for i := 0; i < in.NSrc; i++ {
		if in.Rel[i] && in.Srcs[i].IsReg() {
			s.release(w, in.Srcs[i].Reg)
		}
	}

	switch in.Op {
	case isa.OpNop:
		w.advance()
	case isa.OpBra:
		s.execBranch(w, in, active, execMask)
	case isa.OpExit:
		w.advance() // keep stack coherent for partial exits
		if w.exitLanes(execMask) {
			s.warpFinished(w)
		}
	case isa.OpBar:
		w.advance()
		s.barrierArrive(w)
	case isa.OpISetp:
		mask := evalCmp(in.Cmp, &src[0], &src[1]) & execMask
		w.busyPreds |= 1 << uint(in.SetPred)
		w.inflight++
		*s.pushWB(s.cycle + uint64(in.Op.Latency()+extra)) = writeback{
			w: w, pred: in.SetPred, predVal: mask, mask: execMask,
		}
		w.advance()
	case isa.OpSt:
		s.execStore(w, in, execMask)
		w.advance()
	case isa.OpLd:
		s.execLoad(w, in, execMask, extra)
		w.advance()
	default:
		// ALU / SFU: the result is computed straight into its writeback
		// slot.
		lat := in.Op.Latency() + extra
		if wb := s.scheduleRegWrite(w, in, execMask, s.cycle+uint64(lat)); wb != nil {
			evalALU(in, src, w.predMask(in.Guard)&execMask, &wb.val)
		}
		w.advance()
		if in.Op == isa.OpRcp {
			s.demote(w, s.cycle+uint64(lat))
		}
	}
}

// scheduleRegWrite maps the destination (allocating if needed) and
// queues a writeback of it for delivery at cycle plus any wakeup
// penalty. It returns the queued slot, whose value the caller fills
// before the next push, or nil when the instruction writes no register
// or the allocation failed.
func (s *SM) scheduleRegWrite(w *warp, in *isa.Instr, execMask uint32, cycle uint64) *writeback {
	d, ok := in.DstReg()
	if !ok {
		return nil
	}
	fullWrite := !in.Guard.Guarded() && execMask == w.initMask
	if err := s.injectFault(FaultSiteAlloc); err != nil {
		s.failInvariant(w, in.PC, "allocation failed after pre-check (injected)")
		return nil
	}
	res, allocOK := s.table.PhysForWrite(w.slot, d, fullWrite)
	if !allocOK {
		// The pre-checks in tryIssue guarantee space; a failure here is
		// an invariant violation. Recorded, not panicked: the run fails
		// with full context and the hosting process stays up.
		s.failInvariant(w, in.PC, "allocation failed after pre-check")
		return nil
	}
	if res.Freed {
		s.gov.OnRelease(w.cta.slot, arch.BankOf(int(d)))
	}
	if res.Allocated {
		s.gov.OnAlloc(w.cta.slot, arch.BankOf(int(d)))
		s.traceMap(w.slot, d, true)
	}
	w.busyRegs = w.busyRegs.Add(d)
	w.inflight++
	wb := s.pushWB(cycle + uint64(res.WakeCycles))
	wb.w, wb.reg, wb.phys, wb.mask = w, d, res.Phys, execMask
	wb.pred, wb.predVal, wb.memReq, wb.hasReg = -1, 0, false, true
	return wb
}

// pushWB queues a writeback for delivery at cycle (the next cycle at
// the earliest) and returns its slot for the caller to fill.
func (s *SM) pushWB(cycle uint64) *writeback {
	if cycle <= s.cycle {
		cycle = s.cycle + 1
	}
	return s.wbQueue.push(cycle)
}

func (s *SM) execBranch(w *warp, in *isa.Instr, active, execMask uint32) {
	taken := execMask
	fall := active &^ taken
	switch {
	case !in.Guard.Guarded() || taken == active:
		if in.Guard.Guarded() {
			s.res.UniformBranches++
		}
		w.jump(in.Target)
	case taken == 0:
		s.res.UniformBranches++
		w.advance()
	default:
		s.res.DivergentBranches++
		fallPC := in.PC + 1
		w.diverge(in.Target, fallPC, in.Reconv, taken, fall)
		if d := len(w.stack); d > s.res.MaxStackDepth {
			s.res.MaxStackDepth = d
		}
	}
}

func (s *SM) execStore(w *warp, in *isa.Instr, execMask uint32) {
	src := &s.operands
	for l := 0; l < arch.WarpSize; l++ {
		if execMask&(1<<uint(l)) == 0 {
			continue
		}
		k := s.memLaneKey(w, in, src[0][l], l)
		s.mem.store(k, src[1][l])
	}
	if in.Space != isa.SpaceShared {
		done := s.mem.accept()
		*s.pushWB(done) = writeback{w: w, pred: -1, memReq: true}
		w.inflight++
	}
}

// execLoad issues a load: the destination is mapped and the writeback
// queued first, then each active lane's word is read straight into the
// writeback's slot (inactive lanes read as zero).
func (s *SM) execLoad(w *warp, in *isa.Instr, execMask uint32, extra int) {
	d, ok := in.DstReg()
	if !ok {
		return
	}
	fullWrite := !in.Guard.Guarded() && execMask == w.initMask
	if err := s.injectFault(FaultSiteAlloc); err != nil {
		s.failInvariant(w, in.PC, "load allocation failed after pre-check (injected)")
		return
	}
	res, allocOK := s.table.PhysForWrite(w.slot, d, fullWrite)
	if !allocOK {
		s.failInvariant(w, in.PC, "load allocation failed after pre-check")
		return
	}
	if res.Freed {
		s.gov.OnRelease(w.cta.slot, arch.BankOf(int(d)))
	}
	if res.Allocated {
		s.gov.OnAlloc(w.cta.slot, arch.BankOf(int(d)))
		s.traceMap(w.slot, d, true)
	}
	w.busyRegs = w.busyRegs.Add(d)
	w.inflight++
	long := in.Space != isa.SpaceShared
	var done uint64
	if long {
		done = s.mem.accept() + uint64(extra+res.WakeCycles)
		s.demote(w, done)
	} else {
		done = s.cycle + uint64(arch.SharedMemLatency+extra+res.WakeCycles)
	}
	wb := s.pushWB(done)
	wb.w, wb.reg, wb.phys, wb.mask = w, d, res.Phys, execMask
	wb.pred, wb.predVal, wb.memReq, wb.hasReg = -1, 0, long, true
	base := &s.operands[0]
	for l := 0; l < arch.WarpSize; l++ {
		if execMask&(1<<uint(l)) == 0 {
			wb.val[l] = 0
			continue
		}
		wb.val[l] = s.mem.load(s.memLaneKey(w, in, base[l], l))
	}
}

// memLaneKey builds the functional memory key for one lane's access.
func (s *SM) memLaneKey(w *warp, in *isa.Instr, base uint32, lane int) memKey {
	addr := base + uint32(in.MemOff)
	switch in.Space {
	case isa.SpaceGlobal:
		return memKey{space: isa.SpaceGlobal, addr: addr}
	case isa.SpaceShared:
		return memKey{space: isa.SpaceShared, scope: uint32(w.cta.ctaID), addr: addr}
	default: // spill: per-thread private, scoped by grid CTA and warp
		return memKey{
			space: isa.SpaceSpill,
			scope: uint32(w.cta.ctaID)*64 + uint32(w.idInCTA),
			lane:  uint8(lane),
			addr:  addr,
		}
	}
}
