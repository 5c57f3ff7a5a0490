package sim

// Stall skipping. A cycle is quiet when the SM issued nothing and
// changed no state: no writeback landed, no warp was promoted or
// restored, and every issue attempt failed on a scoreboard hazard,
// which only counts the stall (tryIssue's one failure without side
// effects). The cycle after a quiet one sees the same machine, so it
// does the same, and so on until an event changes the machine or the
// engine around it acts. settle puts a quiet SM to sleep until the
// first such cycle, its wake; catchUp later applies the slept cycles'
// per-cycle effects in bulk:
//
//   - the hazard-stall count (the quiet cycle's, once per cycle),
//   - resident-warp cycles and the register file's TickPower,
//   - the profile's cycle class (hazard, commit or idle stall).
//
// The wake is the first cycle that holds any of these events:
//
//   - a writeback lands, a pending or ready warp's readyAt arrives, or
//     a spilled warp's restoreAfter does;
//   - the §8.1 spill fallback triggers;
//   - a live sample or a profile timeline sample is due;
//   - the step is refused for MaxCycles, or polls Config.Cancel;
//   - the check after the step fails the run for the deadlock window,
//     runs SelfCheck, or takes a checkpoint (single-SM runs).
//
// For the last kind the wake is the cycle whose step precedes the
// check, so the step and its check run as they would have. A sleeping
// SM of a device run always holds a CTA, so it cannot finish while
// asleep. A single SM holding none waits on nothing (it dispatches
// only when a CTA completes), so it sleeps towards the deadlock check.
//
// The single-SM loop (runLoop) catches up to the wake and steps it.
// The device engine (gpu.go) skips a sleeping SM's compute turns and
// catches it up before stepping it at its wake, before giving it a
// dispatch turn that could place a CTA (and then wakes it), and before
// taking a snapshot. A stepped cycle is always exact, so waking early
// is safe; only a late wake could change a result, and
// TestSkippingIsExactPerBackend compares every engine, backend and
// cadence with a run stepped one cycle at a time.

// asleep reports that the SM skips cycles until its wake.
func (s *SM) asleep() bool { return s.wake > s.cycle }

// settle runs after a step: if the step was quiet, with hazards
// hazard stalls, the SM sleeps until its next event.
func (s *SM) settle(hazards uint64) {
	s.wake = 0
	if s.busy || s.stepEvery || s.fault != nil || (s.liveCTAs == 0 && s.deferDispatch) {
		return
	}
	if w := s.nextEvent(); w > s.cycle {
		s.wake, s.quietHazards = w, hazards
	}
}

// nextEvent returns the first cycle, from s.cycle on, that must be
// stepped rather than repeat the quiet cycle before it.
func (s *SM) nextEvent() uint64 {
	c := s.cycle
	next := s.cfg.MaxCycles
	at := func(t uint64) {
		if t < next {
			next = t
		}
	}
	// from returns the first multiple of n at or after t.
	from := func(t, n uint64) uint64 { return (t + n - 1) / n * n }

	if t, ok := s.wbQueue.next(); ok {
		at(t)
	}
	for _, w := range s.ready {
		if w.readyAt >= c {
			at(w.readyAt)
		}
	}
	for _, w := range s.pendingQ {
		if w.readyAt >= c {
			at(w.readyAt)
		}
	}
	if s.res.Spills > 0 {
		for _, cta := range s.slots() {
			if cta == nil {
				continue
			}
			for i := range cta.warps {
				if w := &cta.warps[i]; w.state == wSpilled && w.restoreAfter >= c {
					at(w.restoreAfter)
				}
			}
		}
	}
	lp := s.lastProgress
	if s.table.SpillFallback() {
		at(lp + max(from(c-lp, spillTriggerWindow), 2*spillTriggerWindow))
	}
	at(lp + deadlockWindow)
	if n := uint64(s.cfg.Trace.SampleLiveEvery); n > 0 {
		at(from(c, n))
	}
	if s.prof != nil {
		at(from(c, profileSampleEvery))
	}
	if s.cfg.Cancel != nil {
		at(from(c, cancelCheckEvery))
	}
	// Checks after a step: the step before the next multiple above c.
	if n := uint64(s.cfg.SelfCheckEvery); n > 0 {
		at(from(c+1, n) - 1)
	}
	if n := s.cfg.CheckpointEvery; n > 0 && s.cfg.Checkpoint != nil {
		at(from(c+1, n) - 1)
	}
	return next
}

// catchUp applies the quiet cycles from s.cycle up to (not including)
// cycle to, in bulk.
func (s *SM) catchUp(to uint64) {
	if to <= s.cycle {
		return
	}
	n := to - s.cycle
	s.res.Stalls.Hazard += n * s.quietHazards
	if p := s.prof; p != nil {
		switch {
		case s.quietHazards > 0:
			p.HazardStallCycles += n
		case s.wbQueue.len() > 0:
			p.CommitStallCycles += n
		default:
			p.IdleCycles += n
		}
	}
	s.file.TickPower(n)
	s.residentWarpCyc += n * uint64(s.residentWarps)
	s.slept += n
	s.cycle = to
}
