package sim

import (
	"errors"
	"fmt"
	"sort"

	"regvirt/internal/arch"
	"regvirt/internal/flagcache"
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
	"regvirt/internal/regfile"
	"regvirt/internal/rename"
	"regvirt/internal/throttle"
)

// Checkpointing serializes the complete mutable state of a run at a
// cycle boundary so the run can be resumed later — in another process —
// and still produce a Result byte-identical to the uninterrupted run.
// Every field of every snapshot type is exported, so any encoder
// (encoding/gob is what the jobs durability layer uses) round-trips it
// without custom marshalers. The immutable inputs (Config, LaunchSpec,
// the kernel program) are deliberately NOT part of a snapshot: a resume
// rebuilds them from the same job spec, and the restore path validates
// geometry so a snapshot cannot be applied to a mismatched launch.
//
// Snapshot boundaries are exact cycle boundaries:
//
//   - single-SM runs snapshot between stepChecked calls (after a cycle
//     fully retires, before the next begins);
//   - whole-device runs snapshot between engine iterations — after the
//     commit phase, when every phasedPort's buffered intents are empty —
//     which is the only point where shared state is quiescent.
//
// Because the simulator is deterministic and RNG-free, "resume from any
// checkpoint" and "never stopped" traverse identical state sequences;
// checkpoint_test.go enforces this with the determinism-matrix
// machinery across schedulers and modes.

// ErrBadCheckpoint marks a checkpoint that cannot be applied to the
// given config and launch — corrupt, truncated, or taken under
// different geometry. Restore failures wrap it so callers (the jobs
// durability layer) can discard the checkpoint and restart from
// scratch instead of failing the job.
var ErrBadCheckpoint = errors.New("sim: checkpoint not applicable")

// Checkpoint is the payload handed to Config.Checkpoint: exactly one of
// SM (single-SM Run) or GPU (whole-device RunGPU) is non-nil.
type Checkpoint struct {
	// Cycle is the SM cycle (single-SM) or device engine cycle (GPU) the
	// snapshot was taken at.
	Cycle uint64
	SM    *Snapshot
	GPU   *GPUSnapshot
}

// Snapshot is the complete mutable state of one SM.
type Snapshot struct {
	Cycle             uint64
	DoneCTAs          int
	LiveCTAs          int
	ResidentWarpCyc   uint64
	AllocStalled      bool
	LastProgress      uint64
	RRIndex           int
	PeakResidentWarps int
	ResidentWarps     int
	// WBOutstanding is len(WBs); kept so checkpoints keep their format.
	WBOutstanding int

	// Warps is the identity table: every live warp object — the warps of
	// resident CTAs plus "detached" warps whose CTA already completed but
	// which still have writebacks in flight — appears exactly once, and
	// every other field references warps by index into it.
	Warps []WarpSnap
	CTAs  []CTASnap
	// Ready and Pending are the scheduler queues in order.
	Ready   []int
	Pending []int
	// LastIssued is the GTO scheduler's greedy warp, -1 when unset or
	// when it pointed at a warp no longer reachable (equivalent: a
	// dangling greedy pointer can never match a ready warp again).
	LastIssued int
	// WBs is the writeback queue: entries sorted by delivery cycle,
	// preserving within-cycle order.
	WBs []WBSnap
	// Src is the CTA source (single-SM runs only; device runs share one
	// source captured in GPUSnapshot).
	Src *SrcSnap

	File  *regfile.State
	Table *rename.State
	Flag  *flagcache.State
	Gov   *throttle.State
	// Mem is the memory system state of single-SM runs; Port is the
	// per-SM slice of device runs (the shared content lives in
	// GPUSnapshot).
	Mem  *MemState
	Port *PortState

	// Res is the partially accumulated Result (trace samples, spill and
	// stall counters, ...).
	Res Result
}

// CTASnap is one resident CTA.
type CTASnap struct {
	Slot      int
	CTAID     int
	LiveWarps int
	AtBarrier int
	Warps     []int // indices into Snapshot.Warps
}

// SIMTFrame is one reconvergence stack entry.
type SIMTFrame struct {
	ReconvPC int
	PC       int
	Mask     uint32
}

// SpillSnap is one spilled architected register.
type SpillSnap struct {
	Reg isa.RegID
	Val [arch.WarpSize]uint32
}

// WarpSnap is one warp's complete state.
type WarpSnap struct {
	// CTA indexes Snapshot.CTAs, or -1 for a detached warp (its CTA
	// completed while writebacks were still in flight); DetCTAID and
	// DetCTASlot then preserve the completed CTA's identity.
	CTA        int
	DetCTAID   int
	DetCTASlot int

	Slot         int
	IDInCTA      int
	Stack        []SIMTFrame
	InitMask     uint32
	Preds        [isa.NumPredRegs]uint32
	State        uint8
	ReadyAt      uint64
	BusyRegs     liveness.RegSet
	BusyPreds    uint8
	Inflight     int
	Spilled      []SpillSnap
	RestoreAfter uint64
}

// WBSnap is one in-flight writeback.
type WBSnap struct {
	Cycle   uint64
	Warp    int // index into Snapshot.Warps
	Reg     isa.RegID
	Phys    regfile.PhysReg
	Val     [arch.WarpSize]uint32
	Mask    uint32
	Pred    int8
	PredVal uint32
	MemReq  bool
	HasReg  bool
}

// SrcSnap is the CTA dispatcher state.
type SrcSnap struct {
	Next     int
	Limit    int
	Returned []int
}

// MemCell is one functional-memory word.
type MemCell struct {
	Space isa.MemSpace
	Scope uint32
	Lane  uint8
	Addr  uint32
	Val   uint32
}

// MemState is the single-SM memory system (content + timing).
type MemState struct {
	Cells       []MemCell
	Outstanding int
	Requests    uint64
}

// PortState is one SM's phasedPort timing state. Buffered store intents
// and the DRAM delta are always empty at a commit boundary, so only the
// cumulative counters survive.
type PortState struct {
	Outstanding int
	Requests    uint64
}

// GPUSnapshot is the complete mutable state of a whole-device run.
type GPUSnapshot struct {
	// Cycle is the engine iteration count (every unfinished SM steps once
	// per iteration).
	Cycle uint64
	SMs   []*Snapshot
	Src   SrcSnap
	// Data and SharedOutstanding are the committed gpuShared state.
	Data              []MemCell
	SharedOutstanding int
}

// sortedCells flattens functional memory deterministically.
func sortedCells(m *memory) []MemCell {
	cells := make([]MemCell, 0, len(m.global)+len(m.scratch))
	for addr, v := range m.global {
		cells = append(cells, MemCell{Space: isa.SpaceGlobal, Addr: addr, Val: v})
	}
	for k, v := range m.scratch {
		cells = append(cells, MemCell{Space: k.space, Scope: k.scope, Lane: k.lane, Addr: k.addr, Val: v})
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Space != b.Space {
			return a.Space < b.Space
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		return a.Addr < b.Addr
	})
	return cells
}

// memoryFromCells rebuilds functional memory from its flattened cells.
func memoryFromCells(cells []MemCell) memory {
	m := newMemory()
	for _, c := range cells {
		m.store(memKey{space: c.Space, scope: c.Scope, lane: c.Lane, addr: c.Addr}, c.Val)
	}
	return m
}

// copyResult deep-copies a Result so a snapshot cannot alias the live
// accumulator (LiveSamples/RegEvents grow by append). Stores is only
// set once a run ends, so a snapshot never carries one.
func copyResult(r Result) Result {
	out := r
	out.LiveSamples = append([]LiveSample(nil), r.LiveSamples...)
	out.RegEvents = append([]RegEvent(nil), r.RegEvents...)
	out.Profile = copyProfile(r.Profile)
	return out
}

// snapshot captures the SM's complete mutable state at a cycle boundary.
func (s *SM) snapshot() *Snapshot {
	snap := &Snapshot{
		Cycle:             s.cycle,
		DoneCTAs:          s.doneCTAs,
		LiveCTAs:          s.liveCTAs,
		ResidentWarpCyc:   s.residentWarpCyc,
		AllocStalled:      s.allocStalled,
		LastProgress:      s.lastProgress,
		RRIndex:           s.rrIndex,
		PeakResidentWarps: s.peakResidentWarps,
		ResidentWarps:     s.residentWarps,
		WBOutstanding:     s.wbQueue.len(),
		LastIssued:        -1,
		File:              s.file.State(),
		Table:             s.table.State(),
		Flag:              s.fcache.State(),
		Gov:               s.gov.State(),
		Res:               copyResult(s.res),
	}

	// Warp identity table: resident CTAs first (slot order, warp order
	// within the CTA), then detached warps in writeback-queue order.
	index := map[*warp]int{}
	var warps []*warp
	add := func(w *warp) int {
		if i, ok := index[w]; ok {
			return i
		}
		index[w] = len(warps)
		warps = append(warps, w)
		return len(warps) - 1
	}
	ctaIndex := map[*ctaState]int{}
	for _, cta := range s.slots() {
		if cta == nil {
			continue
		}
		ctaIndex[cta] = len(snap.CTAs)
		cs := CTASnap{Slot: cta.slot, CTAID: cta.ctaID, LiveWarps: cta.liveWarps, AtBarrier: cta.atBarrier}
		for i := range cta.warps {
			cs.Warps = append(cs.Warps, add(&cta.warps[i]))
		}
		snap.CTAs = append(snap.CTAs, cs)
	}

	for _, ref := range s.wbQueue.ordered() {
		wb := &s.wbQueue.slab[ref.idx]
		snap.WBs = append(snap.WBs, WBSnap{
			Cycle:   ref.cycle,
			Warp:    add(wb.w),
			Reg:     wb.reg,
			Phys:    wb.phys,
			Val:     wb.val,
			Mask:    wb.mask,
			Pred:    wb.pred,
			PredVal: wb.predVal,
			MemReq:  wb.memReq,
			HasReg:  wb.hasReg,
		})
	}

	for _, w := range warps {
		ws := WarpSnap{
			CTA:          -1,
			Slot:         w.slot,
			IDInCTA:      w.idInCTA,
			InitMask:     w.initMask,
			Preds:        w.preds,
			State:        uint8(w.state),
			ReadyAt:      w.readyAt,
			BusyRegs:     w.busyRegs,
			BusyPreds:    w.busyPreds,
			Inflight:     w.inflight,
			RestoreAfter: w.restoreAfter,
		}
		if ci, ok := ctaIndex[w.cta]; ok {
			ws.CTA = ci
		} else {
			ws.DetCTAID = w.cta.ctaID
			ws.DetCTASlot = w.cta.slot
		}
		for _, f := range w.stack {
			ws.Stack = append(ws.Stack, SIMTFrame{ReconvPC: f.reconvPC, PC: f.pc, Mask: f.mask})
		}
		for _, sv := range w.spillSaved {
			ws.Spilled = append(ws.Spilled, SpillSnap{Reg: sv.Reg, Val: sv.Val})
		}
		snap.Warps = append(snap.Warps, ws)
	}

	for _, w := range s.ready {
		snap.Ready = append(snap.Ready, add(w))
	}
	for _, w := range s.pendingQ {
		snap.Pending = append(snap.Pending, add(w))
	}
	if s.lastIssued != nil {
		if i, ok := index[s.lastIssued]; ok {
			snap.LastIssued = i
		}
	}

	if s.src != nil && !s.deferDispatch {
		snap.Src = &SrcSnap{Next: s.src.next, Limit: s.src.limit, Returned: append([]int(nil), s.src.returned...)}
	}

	switch mp := s.mem.(type) {
	case *memSys:
		snap.Mem = &MemState{
			Cells:       sortedCells(&mp.memory),
			Outstanding: mp.outstanding,
			Requests:    mp.requests,
		}
	case *phasedPort:
		snap.Port = &PortState{Outstanding: mp.outstanding, Requests: mp.requests}
	}
	return snap
}

// restore applies a snapshot to a freshly constructed SM for the same
// Config and LaunchSpec. Index fields are bounds-checked so a corrupted
// snapshot fails with an error instead of a panic.
func (s *SM) restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("sim: nil snapshot")
	}
	if snap.File == nil || snap.Table == nil || snap.Flag == nil || snap.Gov == nil {
		return fmt.Errorf("sim: snapshot missing component state")
	}
	if err := s.file.SetState(snap.File); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := s.table.SetState(snap.Table); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := s.fcache.SetState(snap.Flag); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := s.gov.SetState(snap.Gov); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	// Rebuild CTA and warp object graphs: a resident CTA's warps live in
	// its slab, at the positions its snapshot lists them in.
	ctas := make([]*ctaState, len(snap.CTAs))
	warps := make([]*warp, len(snap.Warps))
	for i, cs := range snap.CTAs {
		if cs.Slot < 0 || cs.Slot >= len(s.slots()) {
			return fmt.Errorf("sim: restore: CTA slot %d out of range", cs.Slot)
		}
		if s.ctaSlots[cs.Slot] != nil {
			return fmt.Errorf("sim: restore: duplicate CTA slot %d", cs.Slot)
		}
		cta := &ctaState{ctaID: cs.CTAID, slot: cs.Slot, liveWarps: cs.LiveWarps, atBarrier: cs.AtBarrier,
			warps: make([]warp, len(cs.Warps))}
		for k, wi := range cs.Warps {
			if wi < 0 || wi >= len(warps) {
				return fmt.Errorf("sim: restore: CTA %d references warp %d of %d", i, wi, len(warps))
			}
			if warps[wi] != nil || snap.Warps[wi].CTA != i {
				return fmt.Errorf("sim: restore: CTA %d lists warp %d, which is not its own", i, wi)
			}
			warps[wi] = &cta.warps[k]
		}
		ctas[i] = cta
		s.ctaSlots[cs.Slot] = cta
	}
	for i, ws := range snap.Warps {
		if ws.CTA < -1 || ws.CTA >= len(ctas) {
			return fmt.Errorf("sim: restore: warp %d references CTA %d of %d", i, ws.CTA, len(ctas))
		}
		w := warps[i]
		if w == nil {
			if ws.CTA >= 0 {
				return fmt.Errorf("sim: restore: warp %d is missing from CTA %d", i, ws.CTA)
			}
			w = new(warp)
			warps[i] = w
		}
		*w = warp{
			slot:         ws.Slot,
			idInCTA:      ws.IDInCTA,
			initMask:     ws.InitMask,
			preds:        ws.Preds,
			state:        warpState(ws.State),
			readyAt:      ws.ReadyAt,
			busyRegs:     ws.BusyRegs,
			busyPreds:    ws.BusyPreds,
			inflight:     ws.Inflight,
			restoreAfter: ws.RestoreAfter,
		}
		if ws.CTA >= 0 {
			w.cta = ctas[ws.CTA]
		} else {
			// Detached warp: its CTA completed; give it an inert stand-in
			// carrying the original identity (nothing schedules it — only
			// pending writebacks still reference it).
			w.cta = &ctaState{ctaID: ws.DetCTAID, slot: ws.DetCTASlot}
		}
		for _, f := range ws.Stack {
			w.stack = append(w.stack, simtEntry{reconvPC: f.ReconvPC, pc: f.PC, mask: f.Mask})
		}
		for _, sv := range ws.Spilled {
			w.spillSaved = append(w.spillSaved, rename.SpilledReg{Reg: sv.Reg, Val: sv.Val})
		}
	}
	for _, wi := range snap.Ready {
		if wi < 0 || wi >= len(warps) {
			return fmt.Errorf("sim: restore: ready queue references warp %d of %d", wi, len(warps))
		}
		s.ready = append(s.ready, warps[wi])
	}
	for _, wi := range snap.Pending {
		if wi < 0 || wi >= len(warps) {
			return fmt.Errorf("sim: restore: pending queue references warp %d of %d", wi, len(warps))
		}
		s.pendingQ = append(s.pendingQ, warps[wi])
	}
	if snap.LastIssued >= 0 {
		if snap.LastIssued >= len(warps) {
			return fmt.Errorf("sim: restore: lastIssued references warp %d of %d", snap.LastIssued, len(warps))
		}
		s.lastIssued = warps[snap.LastIssued]
	}
	for _, wb := range snap.WBs {
		if wb.Warp < 0 || wb.Warp >= len(warps) {
			return fmt.Errorf("sim: restore: writeback references warp %d of %d", wb.Warp, len(warps))
		}
		s.wbQueue.push(wb.Cycle, writeback{
			w:       warps[wb.Warp],
			reg:     wb.Reg,
			phys:    wb.Phys,
			val:     wb.Val,
			mask:    wb.Mask,
			pred:    wb.Pred,
			predVal: wb.PredVal,
			memReq:  wb.MemReq,
			hasReg:  wb.HasReg,
		})
	}

	if snap.Src != nil {
		if snap.Src.Limit != s.src.limit {
			return fmt.Errorf("sim: restore: CTA source limit %d, launch expects %d", snap.Src.Limit, s.src.limit)
		}
		s.src.next = snap.Src.Next
		s.src.returned = append([]int(nil), snap.Src.Returned...)
	}
	switch mp := s.mem.(type) {
	case *memSys:
		if snap.Mem == nil {
			return fmt.Errorf("sim: restore: snapshot has no memory state for a single-SM run")
		}
		mp.memory = memoryFromCells(snap.Mem.Cells)
		mp.outstanding = snap.Mem.Outstanding
		mp.requests = snap.Mem.Requests
	case *phasedPort:
		if snap.Port == nil {
			return fmt.Errorf("sim: restore: snapshot has no port state for a device run")
		}
		mp.outstanding = snap.Port.Outstanding
		mp.requests = snap.Port.Requests
	}

	s.cycle = snap.Cycle
	s.doneCTAs = snap.DoneCTAs
	s.liveCTAs = snap.LiveCTAs
	s.residentWarpCyc = snap.ResidentWarpCyc
	s.allocStalled = snap.AllocStalled
	s.lastProgress = snap.LastProgress
	s.rrIndex = snap.RRIndex
	s.peakResidentWarps = snap.PeakResidentWarps
	s.residentWarps = snap.ResidentWarps
	s.res = copyResult(snap.Res)
	// Re-link the profiler to the restored accumulator. A profiled
	// resume of a checkpoint taken without profiling (or by an older
	// build) starts a fresh profile covering the resumed portion; an
	// unprofiled resume drops any profile the snapshot carried, so the
	// result matches an uninterrupted unprofiled run byte for byte.
	if s.cfg.Profile {
		if s.res.Profile == nil {
			s.res.Profile = newProfile()
		}
		s.prof = s.res.Profile
	} else {
		s.res.Profile = nil
		s.prof = nil
	}
	return nil
}

// emitCheckpoint hands a fresh snapshot to the configured hook.
func (s *SM) emitCheckpoint() {
	s.cfg.Checkpoint(&Checkpoint{Cycle: s.cycle, SM: s.snapshot()})
}

// maybeCheckpoint emits a periodic checkpoint at the configured cadence.
// It runs after a cycle fully retires; the final cycle of a run never
// checkpoints (the result itself is about to exist).
func (s *SM) maybeCheckpoint() {
	n := s.cfg.CheckpointEvery
	if n == 0 || s.cfg.Checkpoint == nil {
		return
	}
	if s.cycle%n == 0 && !s.finished() {
		s.emitCheckpoint()
	}
}

// Resume continues a single-SM run from a checkpoint taken by an
// earlier Run with the same Config and LaunchSpec. The resumed run is
// byte-identical to the uninterrupted one: it does NOT re-run CTA
// dispatch (dispatch only ever happens at launch and at CTA completion,
// both of which the snapshot already reflects).
func Resume(cfg Config, spec LaunchSpec, ck *Checkpoint) (*Result, error) {
	if ck == nil || ck.SM == nil {
		return nil, fmt.Errorf("%w: Resume needs a single-SM checkpoint", ErrBadCheckpoint)
	}
	sm, err := newSM(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := sm.restore(ck.SM); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return sm.runLoop()
}
