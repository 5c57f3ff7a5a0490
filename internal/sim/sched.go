package sim

import "regvirt/internal/arch"

// Two-level warp scheduling (§5) plus the §8.1 spill fallback. Every
// routine here mutates SM-private state only; memory effects go through
// the memPort.

// spillTriggerWindow is how long the SM tolerates zero issue before
// invoking the §8.1 spill fallback.
const spillTriggerWindow = 5000

// promote fills the ready queue from eligible pending warps (two-level
// scheduler, §5: pending warps enter the ready queue when their
// long-latency operation completes and a slot frees up).
func (s *SM) promote() {
	for len(s.ready) < arch.ReadyQueueSize && s.cycle >= s.promoteAt {
		idx := -1
		next := ^uint64(0)
		for i, w := range s.pendingQ {
			if w.state != wPending {
				continue
			}
			if w.readyAt <= s.cycle {
				idx = i
				break
			}
			next = min(next, w.readyAt)
		}
		if idx == -1 {
			s.promoteAt = next
			return
		}
		w := s.pendingQ[idx]
		s.pendingQ = append(s.pendingQ[:idx], s.pendingQ[idx+1:]...)
		w.state = wReady
		s.ready = append(s.ready, w)
		s.busy = true
	}
}

// demote removes a warp from the ready queue into pending.
func (s *SM) demote(w *warp, readyAt uint64) {
	s.removeFromReady(w)
	s.pend(w, readyAt)
}

// pend queues w as pending until cycle readyAt, keeping promoteAt at
// or below the readyAt of every pending warp.
func (s *SM) pend(w *warp, readyAt uint64) {
	w.state = wPending
	w.readyAt = readyAt
	s.pendingQ = append(s.pendingQ, w)
	s.promoteAt = min(s.promoteAt, readyAt)
}

// removeFromReady drops a warp that stopped being schedulable (barrier,
// finish, spill).
func (s *SM) removeFromReady(w *warp) {
	for i, r := range s.ready {
		if r == w {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}

// schedule runs the two warp schedulers. It reports whether any warp
// issued this cycle (the profiler's primary classification input).
func (s *SM) schedule() bool {
	s.allocStalled = false
	issuedAny := false
	// stamp marks a warp that issued this cycle (one issue per warp per
	// cycle across both schedulers).
	stamp := s.cycle + 1
	for sched := 0; sched < arch.NumSchedulers; sched++ {
		for _, w := range s.pickOrder() {
			if w.issuedStamp == stamp || w.state != wReady || w.readyAt > s.cycle {
				continue
			}
			if s.tryIssue(w) {
				w.issuedStamp = stamp
				issuedAny = true
				s.lastIssued = w
				if s.prof != nil && w.slot < len(s.prof.WarpIssued) {
					s.prof.WarpIssued[w.slot]++
				}
				if s.cfg.Scheduler == SchedLRR {
					s.rrIndex++
				}
				break
			}
		}
		if len(s.ready) == 0 {
			break
		}
	}
	if issuedAny {
		s.lastProgress = s.cycle
		s.busy = true
		return true
	}
	if s.allocStalled {
		s.busy = true
	}
	// Zero-issue cycle caused by register-allocation pressure with a full
	// ready queue: rotate one stalled warp out so pending warps (whose
	// issue may *release* the registers the stalled ones wait for) get
	// scheduler slots. Without this the six-deep ready queue head-of-line
	// blocks under register pressure. Ordinary data-hazard stalls do not
	// rotate — the two-level scheduler keeps its active set.
	if s.allocStalled && len(s.ready) == arch.ReadyQueueSize && s.hasPromotable() {
		w := s.ready[s.rrIndex%len(s.ready)]
		s.demote(w, s.cycle+1)
		s.rrIndex++
	}
	if s.table.SpillFallback() &&
		s.cycle-s.lastProgress > spillTriggerWindow &&
		(s.cycle-s.lastProgress)%spillTriggerWindow == 0 {
		s.busy = true
		s.spillVictim()
	}
	return false
}

// pickOrder returns the ready warps in this cycle's selection order,
// in the SM's reused order buffer (valid until the next call).
func (s *SM) pickOrder() []*warp {
	n := len(s.ready)
	order := s.order[:0]
	if s.cfg.Scheduler == SchedGTO {
		// Greedy: the last issuer first; then oldest (lowest warp slot).
		for _, w := range s.ready {
			if w == s.lastIssued {
				order = append(order, w)
			}
		}
		// The rest by slot: an insertion sort, the ready queue holding
		// at most ReadyQueueSize warps.
		greedy := len(order)
		for _, w := range s.ready {
			if w == s.lastIssued {
				continue
			}
			i := len(order)
			order = append(order, w)
			for ; i > greedy && order[i-1].slot > w.slot; i-- {
				order[i] = order[i-1]
			}
			order[i] = w
		}
	} else if n > 0 {
		// Loose round-robin: the ready queue rotated to start at
		// rrIndex.
		start := s.rrIndex % n
		order = append(order, s.ready[start:]...)
		order = append(order, s.ready[:start]...)
	}
	s.order = order
	return order
}

// hasPromotable reports whether any pending warp is eligible to enter the
// ready queue now.
func (s *SM) hasPromotable() bool {
	for _, w := range s.pendingQ {
		if w.state == wPending && w.readyAt <= s.cycle {
			return true
		}
	}
	return false
}

// spillVictim evacuates one warp's registers to memory (§8.1 fallback):
// the warp holding the most physical registers. Freeing the biggest
// holder lets some other warp make it through its register-demand peak
// and start releasing, which unclogs the pipeline.
func (s *SM) spillVictim() {
	var victim *warp
	best := 0
	for _, cta := range s.slots() {
		if cta == nil {
			continue
		}
		for i := range cta.warps {
			w := &cta.warps[i]
			if w.state == wFinished || w.state == wSpilled || w.inflight > 0 {
				continue
			}
			if n := s.table.MappedCount(w.slot); n > best {
				best, victim = n, w
			}
		}
	}
	if victim == nil {
		return
	}
	spilled := s.table.SpillWarp(victim.slot)
	if len(spilled) == 0 {
		return
	}
	for _, sr := range spilled {
		s.gov.OnRelease(victim.cta.slot, arch.BankOf(int(sr.Reg)))
		s.mem.noteRequests(1) // one coalesced store per architected register
	}
	victim.spillSaved = spilled
	victim.state = wSpilled
	victim.restoreAfter = s.cycle + 4*uint64(arch.GlobalMemLatency)
	s.removeFromReady(victim)
	for i, p := range s.pendingQ {
		if p == victim {
			s.pendingQ = append(s.pendingQ[:i], s.pendingQ[i+1:]...)
			break
		}
	}
	s.res.Spills++
	s.traceWarpRelease(victim)
	s.lastProgress = s.cycle
}

// restoreSpilled tries to bring spilled warps back. It runs every
// cycle, so it allocates nothing: a run that never spilled returns at
// once (exact on a resumed run too, since checkpoints carry the Spills
// count), and a restore hands the backend the saved registers as they
// are.
func (s *SM) restoreSpilled() {
	if s.res.Spills == 0 {
		return
	}
	for _, cta := range s.slots() {
		if cta == nil {
			continue
		}
		for i := range cta.warps {
			w := &cta.warps[i]
			if w.state != wSpilled || s.cycle < w.restoreAfter {
				continue
			}
			// Restores must not steal back the headroom spilling created:
			// warps outside the drain CTA stay in memory while the drain
			// CTA is still infeasible (§8.1: "while the pending warps'
			// registers are maintained in the memory, the active warps
			// will proceed"), and any restore needs real slack.
			if cta.slot != s.gov.Drain() &&
				s.gov.NeedSpill(s.file.FreeTotal(), s.file.FreeBanks()) {
				continue
			}
			if s.file.FreeTotal() < len(w.spillSaved)*2 {
				continue
			}
			if !s.table.RestoreWarp(w.slot, w.spillSaved) {
				continue
			}
			for _, sr := range w.spillSaved {
				s.gov.OnAlloc(cta.slot, arch.BankOf(int(sr.Reg)))
				s.mem.noteRequests(1) // one coalesced load per register
			}
			s.traceRestorePins(w)
			s.busy = true
			w.spillSaved = nil
			s.pend(w, s.cycle+uint64(arch.GlobalMemLatency))
		}
	}
}
