package sim

import (
	"regvirt/internal/arch"
	"regvirt/internal/rename"
)

// CTA dispatch, completion and barriers. The ctaSource is the only
// piece of shared state this file touches in whole-device runs; the
// deferDispatch flag keeps every access to it inside the engine's
// commit phase (gpu.go), where SMs are served in fixed index order.

// ctaSource hands out grid CTA ids; in whole-GPU simulations one source
// is shared by every SM (the GigaThread dispatcher).
type ctaSource struct {
	next, limit int
	returned    []int
}

func (c *ctaSource) get() (int, bool) {
	if n := len(c.returned); n > 0 {
		id := c.returned[n-1]
		c.returned = c.returned[:n-1]
		return id, true
	}
	if c.next < c.limit {
		c.next++
		return c.next - 1, true
	}
	return 0, false
}

func (c *ctaSource) putBack(id int) { c.returned = append(c.returned, id) }

func (c *ctaSource) empty() bool { return len(c.returned) == 0 && c.next >= c.limit }

// remaining is the true undispatched CTA count: CTAs handed back after
// a failed launch plus CTAs never handed out at all.
func (c *ctaSource) remaining() int { return len(c.returned) + (c.limit - c.next) }

// exemptFor: the exempt count only applies to the compiler mode.
func exemptFor(m rename.Mode, exempt int) int {
	if m == rename.ModeCompiler {
		return exempt
	}
	return 0
}

// dispatchCTAs launches CTAs into every free slot.
func (s *SM) dispatchCTAs() {
	for slot, cta := range s.slots() {
		if cta != nil {
			continue
		}
		if !s.dispatchInto(slot) {
			return
		}
	}
}

// simtStackCap is the SIMT stack depth each warp gets room for at
// dispatch: a divergent branch nesting two deep needs five frames
// (bench kernels nest at most two). A deeper stack grows on its own.
const simtStackCap = 5

// dispatchInto launches the next CTA into one free slot; false when the
// source is drained or registers ran out. The warps' registers are
// pinned first, so a launch that fails for want of registers builds no
// CTA state.
func (s *SM) dispatchInto(slot int) bool {
	id, ok := s.src.get()
	if !ok {
		return false
	}
	first := slot * s.warpsPerCTA
	for wslot := first; wslot < first+s.warpsPerCTA; wslot++ {
		if !s.table.LaunchWarp(wslot) {
			// Not enough physical registers to pin this warp's
			// registers: roll back, hand the CTA back and retry when a
			// resident CTA completes.
			for lw := first; lw < wslot; lw++ {
				s.releaseWarpRegs(slot, lw)
			}
			s.src.putBack(id)
			return false
		}
		pinned := s.table.MappedCount(wslot)
		for r := 0; r < pinned; r++ {
			s.gov.OnAlloc(slot, arch.BankOf(r))
		}
		s.traceLaunchPins(wslot, pinned)
	}

	// One slab for the warps and one for their SIMT stacks.
	cta := &ctaState{ctaID: id, slot: slot, warps: make([]warp, s.warpsPerCTA), liveWarps: s.warpsPerCTA}
	stacks := make([]simtEntry, s.warpsPerCTA*simtStackCap)
	for wi := range cta.warps {
		w := &cta.warps[wi]
		w.init(first+wi, cta, wi, s.spec.ThreadsPerCTA-wi*arch.WarpSize,
			stacks[wi*simtStackCap:wi*simtStackCap:(wi+1)*simtStackCap])
		w.state = wPending
		w.readyAt = s.cycle
		s.pendingQ = append(s.pendingQ, w)
	}
	s.ctaSlots[slot] = cta
	s.gov.CTALaunched(slot)
	s.liveCTAs++
	s.residentWarps += s.warpsPerCTA
	if s.residentWarps > s.peakResidentWarps {
		s.peakResidentWarps = s.residentWarps
	}
	return true
}

// releaseWarpRegs reclaims every mapping of warp slot wslot, whose CTA
// sits in slot ctaSlot, and updates the balance counters.
func (s *SM) releaseWarpRegs(ctaSlot, wslot int) {
	for bank, n := range s.table.ReleaseWarp(wslot) {
		s.gov.OnReleaseN(ctaSlot, bank, n)
	}
}

// warpFinished handles a warp whose SIMT stack drained.
func (s *SM) warpFinished(w *warp) {
	w.state = wFinished
	s.removeFromReady(w)
	cta := w.cta
	if s.table.ReleasesAtWarpExit() {
		// Virtualized modes reclaim at warp exit; the launch-pinned
		// backends hold everything until the CTA completes (§1).
		s.releaseWarpRegs(cta.slot, w.slot)
		s.traceWarpRelease(w)
	}
	cta.liveWarps--
	s.residentWarps--
	if cta.liveWarps == 0 {
		s.completeCTA(cta)
		return
	}
	// A warp exiting may satisfy a barrier the remaining warps wait at.
	if cta.atBarrier > 0 && cta.atBarrier >= cta.liveWarps {
		s.releaseBarrier(cta)
	}
}

// releaseBarrier moves every warp of cta waiting at its barrier back to
// pending.
func (s *SM) releaseBarrier(cta *ctaState) {
	cta.atBarrier = 0
	for i := range cta.warps {
		if o := &cta.warps[i]; o.state == wBarrier {
			o.state = wPending
			o.readyAt = s.cycle + 1
			s.pendingQ = append(s.pendingQ, o)
		}
	}
}

func (s *SM) completeCTA(cta *ctaState) {
	for i := range cta.warps {
		s.releaseWarpRegs(cta.slot, cta.warps[i].slot)
	}
	s.gov.CTACompleted(cta.slot)
	s.ctaSlots[cta.slot] = nil
	s.doneCTAs++
	s.liveCTAs--
	s.lastProgress = s.cycle
	if !s.deferDispatch {
		s.dispatchCTAs()
	}
}

// barrierArrive handles a bar instruction.
func (s *SM) barrierArrive(w *warp) {
	cta := w.cta
	cta.atBarrier++
	if cta.atBarrier >= cta.liveWarps {
		// Release everyone.
		s.releaseBarrier(cta)
		// The arriving warp continues directly.
		w.state = wPending
		w.readyAt = s.cycle + 1
		s.removeFromReady(w)
		s.pendingQ = append(s.pendingQ, w)
		return
	}
	w.state = wBarrier
	s.removeFromReady(w)
}
