package sim

import (
	"errors"
	"fmt"
	"slices"

	"regvirt/internal/arch"
	"regvirt/internal/flagcache"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/throttle"
)

// The SM pipeline is decomposed across three files:
//
//	sm.go       — the SM state, cycle loop and writeback stage
//	sched.go    — the two-level warp scheduler and the §8.1 spill fallback
//	dispatch.go — CTA dispatch, completion and barriers
//
// Everything in these files touches only SM-private state plus the
// memPort (port.go), which is the sole route to shared memory. That
// boundary is what lets the whole-device engine (gpu.go) buffer an
// SM's shared-state effects until the commit phase: an SM's cycle is
// then independent of the order the SMs step in, and a device
// checkpoint taken after a commit is consistent.

// ctaState is one resident CTA. Its warps live in one slab allocated
// at dispatch, so a warp pointer stays valid for as long as a
// writeback still references it, after the CTA completed too.
type ctaState struct {
	ctaID     int // grid index
	slot      int // CTA slot on the SM
	warps     []warp
	liveWarps int
	atBarrier int
}

// writeback is a scheduled result delivery.
type writeback struct {
	w       *warp
	val     lanes
	mask    uint32
	predVal uint32
	phys    regfile.PhysReg
	reg     isa.RegID
	pred    int8 // destination predicate (isetp), -1 otherwise
	memReq  bool // retires a memory request
	hasReg  bool
}

// wbQueue holds the scheduled writebacks: a binary min-heap, ordered
// by (delivery cycle, push sequence), of indices into a slab whose
// entries pops hand back to a free list. Writebacks due in one cycle
// come out in the order they were pushed — regcache's FIFO replacement
// depends on it — and pushing and popping allocate nothing until more
// writebacks are in flight than the capacity the launch gave the queue.
type wbQueue struct {
	slab []writeback
	free []int32
	heap []wbRef
	seq  uint64
}

// wbRef places one slab entry in the heap.
type wbRef struct {
	cycle, seq uint64
	idx        int32
}

func (a wbRef) before(b wbRef) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.seq < b.seq)
}

// len is the number of writebacks in flight.
func (q *wbQueue) len() int { return len(q.heap) }

// next returns the delivery cycle of the first writeback due, if any.
func (q *wbQueue) next() (uint64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].cycle, true
}

// push schedules a writeback for delivery at cycle and returns its
// slot, valid until the next push, for the caller to fill: a result is
// computed straight into the queue, never copied through it.
func (q *wbQueue) push(cycle uint64) *writeback {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		q.slab = append(q.slab, writeback{})
	}
	q.heap = append(q.heap, wbRef{cycle: cycle, seq: q.seq, idx: idx})
	q.seq++
	h := q.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return &q.slab[idx]
}

// pop removes the first writeback due by cycle. The entry stays valid
// until the next push.
func (q *wbQueue) pop(cycle uint64) (*writeback, bool) {
	h := q.heap
	if len(h) == 0 || h[0].cycle > cycle {
		return nil, false
	}
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.free = append(q.free, top.idx)
	return &q.slab[top.idx], true
}

// ordered returns the queued entries in delivery order.
func (q *wbQueue) ordered() []wbRef {
	refs := slices.Clone(q.heap)
	slices.SortFunc(refs, func(a, b wbRef) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	return refs
}

// SM is one streaming multiprocessor executing a launch.
type SM struct {
	cfg  Config
	spec LaunchSpec
	prog *isa.Program

	file   *regfile.File
	table  rename.Backend
	fcache *flagcache.Cache
	gov    *throttle.Governor
	mem    memPort

	warpsPerCTA int
	// ctaSlots holds the resident CTA of each slot (nil = free); the
	// launch uses the first spec.ConcCTAs (slots).
	ctaSlots [arch.MaxCTAsPerSM]*ctaState
	// fresh holds, per slot, storage the launch carved for the slot's
	// first CTA (nil once used, or when the launch has none for it).
	fresh    [arch.MaxCTAsPerSM]*ctaState
	ready    []*warp
	pendingQ []*warp
	// promoteAt is at or below the readyAt of every pending warp, so
	// promote skips its scan before it (pend lowers it; a scan that
	// finds no warp to promote raises it to their earliest readyAt).
	promoteAt uint64
	// order is the scheduler's selection-order buffer, refilled by
	// pickOrder every scheduler pass.
	order []*warp

	// operands is the operand scratch: issue reads an instruction's
	// source operands into it once, and the execute stage takes them by
	// pointer. masks is every instruction's scoreboard footprint, by PC
	// (one slice per launch, shared by its SMs).
	operands [isa.MaxSrcOperands]lanes
	masks    []scoreMask

	cycle    uint64
	src      *ctaSource
	doneCTAs int
	liveCTAs int
	wbQueue  wbQueue

	// smID is this SM's device index (0 in single-SM runs); fault is a
	// recorded invariant violation or injected fault, checked at the
	// end of every cycle (fault.go).
	smID  int
	fault error

	// deferDispatch is set by the whole-device engine: CTA completion
	// must not reach into the shared ctaSource mid-compute; the engine
	// dispatches for every SM in index order during the commit phase.
	deferDispatch bool

	// prof aliases res.Profile when cfg.Profile is set; nil otherwise.
	// The cycle loop branches on it once per cycle — the entire cost of
	// the feature when off.
	prof *Profile

	// Stall skipping (sleep.go): busy records that the cycle in progress
	// changed state beyond the hazard-stall count; wake, when above
	// cycle, is the next cycle the SM must step, every cycle before it
	// repeating the last quiet one, which counted quietHazards hazard
	// stalls; slept counts the cycles skipped so far; stepEvery turns
	// skipping off (tests).
	busy         bool
	wake         uint64
	quietHazards uint64
	slept        uint64
	stepEvery    bool

	res               Result
	residentWarpCyc   uint64
	allocStalled      bool
	lastIssued        *warp
	lastProgress      uint64
	rrIndex           int
	peakResidentWarps int
	residentWarps     int
}

// newSM builds a single-SM run, with its own memory system and its
// share of the grid.
func newSM(cfg Config, spec LaunchSpec) (*SM, error) {
	if err := validate(&cfg, &spec); err != nil {
		return nil, err
	}
	sms := make([]SM, 1)
	src := &ctaSource{limit: max(spec.GridCTAs/arch.NumSMs, 1)}
	mem := newMemSys()
	if err := buildSMs(sms, cfg, spec, func(int) memPort { return mem }, src); err != nil {
		return nil, err
	}
	return &sms[0], nil
}

// buildSMs builds the SMs of a validated launch in place, SM i around
// memory port port(i), all drawing CTAs from src. Each kind of per-SM
// component — register files, backends, flag caches, governors,
// writeback and scheduler queues, profiles, and the first wave of CTAs
// — comes from launch-wide slabs, one allocation per kind for the
// whole launch.
func buildSMs(sms []SM, cfg Config, spec LaunchSpec, port func(i int) memPort, src *ctaSource) error {
	n := len(sms)
	files, err := regfile.NewFiles(regfile.Config{
		NumRegs:         cfg.PhysRegs,
		PowerGating:     cfg.PowerGating,
		WakeupLatency:   cfg.WakeupLatency,
		Policy:          cfg.AllocPolicy,
		PoisonOnRelease: cfg.PoisonReleased,
	}, n)
	if err != nil {
		return err
	}
	tables, err := rename.NewBackends(rename.Config{
		Mode:              cfg.Mode,
		RegCount:          spec.Kernel.Prog.RegCount,
		Exempt:            exemptFor(cfg.Mode, spec.Kernel.Exempt),
		MaxWarps:          arch.MaxWarpsPerSM,
		CacheEntries:      cfg.RFCacheEntries,
		CacheWriteThrough: cfg.RFCacheWriteThrough,
		SpillRegs:         cfg.SpillRegs,
	}, files)
	if err != nil {
		return err
	}
	fcaches, err := flagcache.NewCaches(cfg.FlagCacheEntries, n)
	if err != nil {
		return err
	}
	wpc := spec.warpsPerCTA()
	govs, err := throttle.NewGovernors(n, arch.MaxCTAsPerSM, spec.Kernel.Prog.RegCount, wpc)
	if err != nil {
		return err
	}
	// The queues are sized from the launch once. The writeback queue
	// gets room for one writeback per MSHR plus one per resident warp
	// (bench kernels peak at 56 of 64); a deeper queue still grows. The
	// ready queue and the scheduler's order buffer never hold more than
	// ReadyQueueSize warps, and the pending queue holds each resident
	// warp at most once.
	residents := wpc * spec.ConcCTAs
	wbs := arch.MaxOutstandingReqs + residents
	wbSlab, wbFree, wbHeap := make([]writeback, n*wbs), make([]int32, n*wbs), make([]wbRef, n*wbs)
	qs := 2*arch.ReadyQueueSize + residents
	queues := make([]*warp, n*qs)
	// The first wave: the CTAs the launch places before any completes,
	// dealt one per SM per slot round, as distribute and dispatchCTAs
	// place them.
	wave := newCTAs(min(src.limit, n*spec.ConcCTAs), wpc)
	var profiles []Profile
	var issued []uint64
	if cfg.Profile {
		profiles = make([]Profile, n)
		issued = make([]uint64, n*arch.MaxWarpsPerSM)
	}
	masks := scoreMasks(spec.Kernel.Prog)
	for i := range sms {
		govs[i].Policy = cfg.ThrottlePolicy
		s := &sms[i]
		*s = SM{
			cfg: cfg, spec: spec, prog: spec.Kernel.Prog,
			file: &files[i], table: tables[i], fcache: &fcaches[i], gov: &govs[i],
			mem:         port(i),
			warpsPerCTA: wpc,
			masks:       masks,
			src:         src,
			smID:        i,
		}
		s.wbQueue.slab = wbSlab[i*wbs : i*wbs : (i+1)*wbs]
		s.wbQueue.free = wbFree[i*wbs : i*wbs : (i+1)*wbs]
		s.wbQueue.heap = wbHeap[i*wbs : i*wbs : (i+1)*wbs]
		q := queues[i*qs : (i+1)*qs : (i+1)*qs]
		s.ready = q[:0:arch.ReadyQueueSize]
		s.order = q[arch.ReadyQueueSize : arch.ReadyQueueSize : 2*arch.ReadyQueueSize]
		s.pendingQ = q[2*arch.ReadyQueueSize : 2*arch.ReadyQueueSize]
		for slot := range spec.ConcCTAs {
			if k := slot*n + i; k < len(wave) {
				s.fresh[slot] = &wave[k]
			}
		}
		if cfg.Profile {
			p := &profiles[i]
			p.WarpIssued = issued[i*arch.MaxWarpsPerSM : (i+1)*arch.MaxWarpsPerSM : (i+1)*arch.MaxWarpsPerSM]
			s.res.Profile = p
			s.prof = p
		}
	}
	return nil
}

// slots returns the launch's CTA slots.
func (s *SM) slots() []*ctaState { return s.ctaSlots[:s.spec.ConcCTAs] }

// finished reports that the SM has no work left.
func (s *SM) finished() bool { return s.src.empty() && s.liveCTAs == 0 }

// stepChecked advances one cycle with the watchdog and invariant checks.
func (s *SM) stepChecked() error {
	if s.cycle >= s.cfg.MaxCycles {
		return fmt.Errorf("sim: exceeded %d cycles (%d CTAs done)", s.cfg.MaxCycles, s.doneCTAs)
	}
	if s.cfg.Cancel != nil && s.cycle%cancelCheckEvery == 0 {
		select {
		case <-s.cfg.Cancel:
			return fmt.Errorf("%w at cycle %d (%d CTAs done)", ErrCancelled, s.cycle, s.doneCTAs)
		default:
		}
	}
	s.step()
	if s.fault != nil {
		return s.fault
	}
	if n := s.cfg.SelfCheckEvery; n > 0 && s.cycle%uint64(n) == 0 {
		if err := s.table.SelfCheck(); err != nil {
			return fmt.Errorf("sim: invariant violation at cycle %d: %w", s.cycle, err)
		}
	}
	if s.cycle-s.lastProgress > deadlockWindow {
		return fmt.Errorf("%w at cycle %d (%d CTAs done, %d free regs)",
			ErrDeadlock, s.cycle, s.doneCTAs, s.file.FreeTotal())
	}
	return nil
}

// finalize fills the result after the last cycle. Stores is left to
// the engine: a single-SM run hands over its memory's global map, and
// a device run's one copy of global memory belongs to the GPUResult.
func (s *SM) finalize() *Result {
	s.res.Cycles = s.cycle
	s.res.MemRequests = s.mem.requestCount()
	s.res.RF = s.file.Stats()
	s.res.Rename = s.table.Stats()
	s.res.Flag = s.fcache.Stats()
	s.res.Throttle.Throttles = s.gov.Throttles
	s.res.Throttle.Blocked = s.gov.Blocked
	s.res.PhysRegs = s.cfg.PhysRegs
	if s.cycle > 0 {
		s.res.AvgResidentWarps = float64(s.residentWarpCyc) / float64(s.cycle)
	}
	s.res.PeakLiveRegs = s.res.RF.PeakLive
	s.res.CompilerAllocatedRegs = s.prog.RegCount * s.peakResidentWarps
	return &s.res
}

func (s *SM) run() (*Result, error) {
	s.dispatchCTAs()
	return s.runLoop()
}

// runLoop advances the SM to completion. It is the shared tail of run
// (fresh launch) and Resume (restored from a checkpoint): a resumed SM
// must NOT re-run the initial CTA dispatch, because in an uninterrupted
// run dispatch only happens at launch and at CTA completion — an extra
// dispatch attempt at the resume point could place a CTA earlier than
// the uninterrupted run would and diverge the two.
func (s *SM) runLoop() (*Result, error) {
	for !s.finished() {
		if s.asleep() {
			s.catchUp(s.wake)
		}
		if err := s.stepChecked(); err != nil {
			if s.cfg.Checkpoint != nil && errors.Is(err, ErrCancelled) {
				// Cancellation is detected before the cycle's first
				// mutation, so the SM still sits on a clean boundary.
				s.emitCheckpoint()
			}
			return nil, err
		}
		s.maybeCheckpoint()
	}
	res := s.finalize()
	res.Stores = s.mem.(*memSys).global.stores() // single-SM runs always use the direct port
	return res, nil
}

// step advances one cycle. In whole-device mode this is the compute
// phase: it reads shared memory (as of the last commit) through the
// memPort but never mutates shared state directly. A cycle that
// changed nothing but the hazard-stall count puts the SM to sleep
// until its next event (settle).
func (s *SM) step() {
	s.busy = false
	s.mem.tick(s.cycle)
	s.applyWritebacks()
	s.restoreSpilled()
	s.promote()
	hazards := s.res.Stalls.Hazard
	if s.prof != nil {
		s.profiledSchedule()
	} else {
		s.schedule()
	}
	s.file.TickPower(1)
	s.trace()
	s.residentWarpCyc += uint64(s.residentWarps)
	s.cycle++
	s.settle(s.res.Stalls.Hazard - hazards)
}

func (s *SM) applyWritebacks() {
	for {
		wb, ok := s.wbQueue.pop(s.cycle)
		if !ok {
			return
		}
		s.busy = true
		if wb.memReq {
			s.mem.complete()
		}
		w := wb.w
		if wb.hasReg {
			if wb.phys != regfile.Unmapped {
				s.table.Write(wb.phys, &wb.val, wb.mask)
			}
			w.busyRegs = w.busyRegs.Remove(wb.reg)
		}
		if wb.pred >= 0 {
			w.preds[wb.pred] = (w.preds[wb.pred] &^ wb.mask) | wb.predVal
			w.busyPreds &^= 1 << uint(wb.pred)
		}
		w.inflight--
	}
}

// trace records per-cycle samples.
func (s *SM) trace() {
	if n := s.cfg.Trace.SampleLiveEvery; n > 0 && s.cycle%uint64(n) == 0 {
		s.res.LiveSamples = append(s.res.LiveSamples, LiveSample{
			Cycle:         s.cycle,
			LiveRegs:      s.file.Live(),
			AllocatedRegs: s.prog.RegCount * s.residentWarps,
		})
	}
}

func (s *SM) tracked(wslot int, r isa.RegID) bool {
	if wslot != s.cfg.Trace.TrackWarp {
		return false
	}
	for _, tr := range s.cfg.Trace.TrackRegs {
		if tr == r {
			return true
		}
	}
	return false
}

func (s *SM) traceMap(wslot int, r isa.RegID, mapped bool) {
	if s.tracked(wslot, r) {
		s.res.RegEvents = append(s.res.RegEvents, RegEvent{Cycle: s.cycle, Reg: r, Mapped: mapped})
	}
}

func (s *SM) traceLaunchPins(wslot, pinned int) {
	for r := 0; r < pinned; r++ {
		s.traceMap(wslot, isa.RegID(r), true)
	}
}

func (s *SM) traceWarpRelease(w *warp) {
	for _, r := range s.cfg.Trace.TrackRegs {
		if w.slot == s.cfg.Trace.TrackWarp {
			s.res.RegEvents = append(s.res.RegEvents, RegEvent{Cycle: s.cycle, Reg: r, Mapped: false})
		}
	}
}

func (s *SM) traceRestorePins(w *warp) {
	if w.slot != s.cfg.Trace.TrackWarp {
		return
	}
	for _, sv := range w.spillSaved {
		s.traceMap(w.slot, sv.Reg, true)
	}
}
