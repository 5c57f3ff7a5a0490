package sim

import (
	"math/bits"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
)

// warpState is the scheduler-visible state of a warp.
type warpState uint8

const (
	wReady    warpState = iota // in the ready queue, may issue
	wPending                   // demoted (long-latency op outstanding)
	wBarrier                   // waiting at a CTA barrier
	wSpilled                   // registers evacuated (§8.1 fallback)
	wFinished                  // all lanes exited
)

// simtEntry is one SIMT reconvergence stack frame.
type simtEntry struct {
	reconvPC int    // pop when pc reaches this (-1: never)
	pc       int    // next pc on this path
	mask     uint32 // active lanes of this path
}

// warp is one resident warp.
type warp struct {
	slot    int // SM warp slot
	cta     *ctaState
	idInCTA int

	stack []simtEntry
	// initMask is the warp's launch-time lane mask (partial for the last
	// warp of a CTA); a write is "full" only when it covers all of it.
	initMask uint32
	preds    [isa.NumPredRegs]uint32

	state warpState
	// readyAt gates promotion/issue: the warp may not issue before this
	// cycle (memory completion, bank-conflict stall, wakeup penalty).
	readyAt uint64

	// Scoreboard: architected registers and predicates with writes in
	// flight. In-order issue blocks on RAW, WAW and guard-pred hazards.
	busyRegs  liveness.RegSet
	busyPreds uint8
	// inflight counts outstanding writebacks (a warp cannot exit or be
	// spilled while results are in flight).
	inflight int
	// issuedStamp is cycle+1 of the last cycle the warp issued in (0 =
	// never): the schedulers' one-issue-per-warp-per-cycle check. It
	// only matters within a cycle, so snapshots leave it out.
	issuedStamp uint64

	// Spill fallback storage.
	spillSaved []spilledState
	// restoreAfter gates re-admission of a spilled warp so spill/restore
	// pairs cannot thrash.
	restoreAfter uint64
}

type spilledState struct {
	reg isa.RegID
	val [arch.WarpSize]uint32
}

// fullMask returns the initial active mask for a warp covering `threads`
// lanes (the last warp of a CTA may be partial).
func fullMask(threads int) uint32 {
	if threads >= arch.WarpSize {
		return ^uint32(0)
	}
	return (uint32(1) << uint(threads)) - 1
}

func newWarp(slot int, cta *ctaState, idInCTA, threads int) *warp {
	m := fullMask(threads)
	return &warp{
		slot:     slot,
		cta:      cta,
		idInCTA:  idInCTA,
		initMask: m,
		stack:    []simtEntry{{reconvPC: -1, pc: 0, mask: m}},
	}
}

// top returns the active SIMT frame.
func (w *warp) top() *simtEntry { return &w.stack[len(w.stack)-1] }

// pc returns the current fetch PC.
func (w *warp) pc() int { return w.top().pc }

// activeMask returns the current lane mask.
func (w *warp) activeMask() uint32 { return w.top().mask }

// advance moves past the current instruction and pops reconverged frames.
func (w *warp) advance() {
	t := w.top()
	t.pc++
	w.popReconverged()
}

// jump sets the pc (branch taken with full agreement).
func (w *warp) jump(pc int) {
	w.top().pc = pc
	w.popReconverged()
}

// popReconverged pops frames whose pc reached their reconvergence point.
func (w *warp) popReconverged() {
	for len(w.stack) > 1 {
		t := w.top()
		if t.reconvPC >= 0 && t.pc == t.reconvPC {
			w.stack = w.stack[:len(w.stack)-1]
		} else {
			return
		}
	}
}

// diverge pushes the sides of a divergent branch. The current frame
// parks at the reconvergence pc with the full mask; each side whose
// entry pc is not already the reconvergence point gets its own frame
// (a side that starts at the reconvergence point just waits there).
// The taken path executes first.
func (w *warp) diverge(takenPC, fallPC, reconvPC int, taken, fall uint32) {
	if reconvPC >= 0 {
		w.top().pc = reconvPC
	} else {
		// Paths reconverge only at warp exit: the current frame's
		// continuation is dead; exitLanes pops it once the sides drain.
		w.top().mask = 0
	}
	if fallPC != reconvPC && fall != 0 {
		w.stack = append(w.stack, simtEntry{reconvPC: reconvPC, pc: fallPC, mask: fall})
	}
	if takenPC != reconvPC && taken != 0 {
		w.stack = append(w.stack, simtEntry{reconvPC: reconvPC, pc: takenPC, mask: taken})
	}
}

// exitLanes removes lanes from every frame (exit instruction) and pops
// empty frames. It returns true when the warp has fully terminated.
func (w *warp) exitLanes(mask uint32) bool {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	for len(w.stack) > 0 && w.top().mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	return len(w.stack) == 0
}

// predMask evaluates a guard against the predicate file.
func (w *warp) predMask(p isa.Pred) uint32 {
	if !p.Guarded() {
		return ^uint32(0)
	}
	m := w.preds[p.Reg]
	if p.Neg {
		m = ^m
	}
	return m
}

// laneCount returns the number of set lanes.
func laneCount(mask uint32) int { return bits.OnesCount32(mask) }
