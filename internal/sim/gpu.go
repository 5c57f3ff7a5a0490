package sim

import (
	"fmt"
	"runtime/debug"

	"regvirt/internal/arch"
)

// GPUResult aggregates a whole-GPU (16-SM) simulation.
type GPUResult struct {
	// Cycles is the device completion time (last SM to finish).
	Cycles uint64
	// Stores is the final global memory content (shared across SMs).
	Stores map[uint32]uint32
	// PerSM holds each SM's individual result. Their Stores are nil:
	// global memory is one device-wide copy, the Stores above.
	PerSM []*Result
	// Instrs sums issued instructions across SMs.
	Instrs uint64
	// PeakLiveRegs sums each SM's peak concurrently-live registers.
	PeakLiveRegs int
	// CompilerAllocatedRegs sums the conventional allocations.
	CompilerAllocatedRegs int
	// Profile is the device-wide cycle attribution (Config.Profile
	// only): the per-SM profiles summed, minus the per-slot timeline
	// samples, which stay per-SM in PerSM[i].Profile.
	Profile *Profile
}

// AllocationReduction is the Fig. 10 metric at device scope.
func (r *GPUResult) AllocationReduction() float64 {
	if r.CompilerAllocatedRegs == 0 {
		return 0
	}
	red := float64(r.CompilerAllocatedRegs-r.PeakLiveRegs) / float64(r.CompilerAllocatedRegs)
	if red < 0 {
		return 0
	}
	return red
}

// dramTokensPerCycle is the device-wide memory request acceptance rate
// shared by all SMs (half the aggregate of the per-SM ports, so DRAM
// bandwidth — not the SM port — is the binding constraint under load).
const dramTokensPerCycle = arch.NumSMs * arch.MemIssueWidth / 2

// RunGPU simulates the full 16-SM device: every CTA of the grid executes
// on some SM, a shared dispatcher hands CTAs to SMs as slots free, every
// SM sees the same global memory, and a device-wide DRAM bandwidth
// budget couples their memory behaviour. Run (single SM) remains the
// fast path for the evaluation harness; RunGPU is the fidelity path.
//
// The device steps on a two-phase cycle engine, on the calling
// goroutine:
//
//	compute — every SM advances one cycle, in index order, touching
//	          only SM-private state; shared memory is read through its
//	          phasedPort as of the previous commit, and all shared-state
//	          effects (stores, DRAM token movement) are buffered as
//	          intents.
//	commit  — the buffered intents are applied in SM index order, then
//	          every SM gets a CTA-dispatch turn, again in index order.
//
// The split makes every SM's cycle independent of where it falls in
// the stepping order (an SM never sees a store another SM made in the
// same cycle), and it leaves shared state quiescent at each commit
// boundary, where checkpoints and cancellation are taken.
func RunGPU(cfg Config, spec LaunchSpec) (*GPUResult, error) {
	eng, err := buildGPU(&cfg, &spec)
	if err != nil {
		return nil, err
	}
	eng.distribute()
	if err := eng.run(); err != nil {
		return nil, err
	}
	return eng.finish(), nil
}

// ResumeGPU continues a whole-device run from a checkpoint taken by an
// earlier RunGPU with the same Config and LaunchSpec. Like the
// single-SM Resume, it skips the initial CTA distribution — the
// snapshot already reflects every dispatch decision — and the resumed
// device is byte-identical to the uninterrupted one.
func ResumeGPU(cfg Config, spec LaunchSpec, ck *Checkpoint) (*GPUResult, error) {
	if ck == nil || ck.GPU == nil {
		return nil, fmt.Errorf("%w: ResumeGPU needs a whole-device checkpoint", ErrBadCheckpoint)
	}
	snap := ck.GPU
	eng, err := buildGPU(&cfg, &spec)
	if err != nil {
		return nil, err
	}
	if len(snap.SMs) != len(eng.sms) {
		return nil, fmt.Errorf("%w: checkpoint has %d SMs, device has %d", ErrBadCheckpoint, len(snap.SMs), len(eng.sms))
	}
	if snap.Src.Limit != eng.src.limit {
		return nil, fmt.Errorf("%w: checkpoint CTA limit %d, launch expects %d", ErrBadCheckpoint, snap.Src.Limit, eng.src.limit)
	}
	eng.src.next = snap.Src.Next
	eng.src.returned = append([]int(nil), snap.Src.Returned...)
	eng.shared.memory = memoryFromCells(snap.Data)
	eng.shared.outstanding = snap.SharedOutstanding
	for i := range eng.sms {
		if err := eng.sms[i].restore(snap.SMs[i]); err != nil {
			return nil, fmt.Errorf("%w: SM %d: %w", ErrBadCheckpoint, i, err)
		}
	}
	eng.cycle = snap.Cycle
	if err := eng.run(); err != nil {
		return nil, err
	}
	return eng.finish(), nil
}

// storeIntentCap is the store-intent room of each port: a cycle issues
// at most one instruction per scheduler, and a store writes at most one
// word per lane.
const storeIntentCap = arch.NumSchedulers * arch.WarpSize

// buildGPU constructs the shared state, the 16 SMs and their phased
// ports — everything RunGPU and ResumeGPU have in common before any
// CTA placement. The launch is validated once; the SMs, the ports, the
// ports' store intents and each kind of per-SM component come from
// launch-wide slabs (buildSMs). Per-SM cancellation polling and
// checkpointing are disabled: the engine polls Cancel once per device
// cycle at the commit boundary, which is both faster than the per-SM
// cancelCheckEvery granularity and the only point where a cancellation
// checkpoint is consistent, and it takes every device checkpoint.
func buildGPU(cfg *Config, spec *LaunchSpec) (*gpuEngine, error) {
	// Validate once (also applies defaulting to cfg).
	if err := validate(cfg, spec); err != nil {
		return nil, err
	}
	e := &gpuEngine{
		cfg:    *cfg,
		sms:    make([]SM, arch.NumSMs),
		ports:  make([]phasedPort, arch.NumSMs),
		src:    ctaSource{limit: spec.GridCTAs},
		shared: gpuShared{tokensPerCycle: dramTokensPerCycle},
	}
	smCfg := *cfg
	smCfg.Cancel, smCfg.Checkpoint, smCfg.CheckpointEvery = nil, nil, 0
	intents := make([]storeIntent, arch.NumSMs*storeIntentCap)
	for i := range e.ports {
		e.ports[i] = phasedPort{shared: &e.shared, smIndex: i,
			stores: intents[i*storeIntentCap : i*storeIntentCap : (i+1)*storeIntentCap]}
	}
	if err := buildSMs(e.sms, smCfg, *spec, func(i int) memPort { return &e.ports[i] }, &e.src); err != nil {
		return nil, err
	}
	for i := range e.sms {
		e.sms[i].deferDispatch = true
	}
	return e, nil
}

// distribute makes the initial CTA placement: round-robin across SMs
// (GigaThread-style), one CTA per SM per round, so a small grid spreads
// instead of piling onto the first SMs.
func (e *gpuEngine) distribute() {
	for slot := 0; slot < len(e.sms[0].slots()) && !e.src.empty(); slot++ {
		for i := range e.sms {
			if sm := &e.sms[i]; sm.ctaSlots[slot] == nil {
				if !sm.dispatchInto(slot) {
					break
				}
			}
		}
	}
}

// finish aggregates the per-SM results once the engine completed. The
// device's global memory becomes the result's Stores as it is.
func (e *gpuEngine) finish() *GPUResult {
	out := &GPUResult{Stores: e.shared.global.stores(), PerSM: make([]*Result, 0, len(e.sms))}
	for i := range e.sms {
		res := e.sms[i].finalize()
		out.PerSM = append(out.PerSM, res)
		if res.Cycles > out.Cycles {
			out.Cycles = res.Cycles
		}
		out.Instrs += res.Instrs
		out.PeakLiveRegs += res.PeakLiveRegs
		out.CompilerAllocatedRegs += res.CompilerAllocatedRegs
		if res.Profile != nil {
			if out.Profile == nil {
				out.Profile = newProfile()
			}
			mergeProfile(out.Profile, res.Profile)
		}
	}
	return out
}

// stepContained runs one SM cycle, converting a panic into an error
// that names the SM and its cycle, so a device failure is localized
// like any other per-SM error. The single-SM Run keeps natural panic
// propagation; its callers (the jobs layer) do their own containment.
func stepContained(i int, sm *SM) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sim: SM %d panicked at cycle %d: %v\n%s", i, sm.cycle, v, debug.Stack())
		}
	}()
	return sm.stepChecked()
}

// gpuEngine drives the two-phase device cycle loop.
type gpuEngine struct {
	cfg    Config
	sms    []SM
	ports  []phasedPort
	src    ctaSource
	shared gpuShared
	// cycle counts engine iterations (every unfinished SM steps once per
	// iteration) — the device clock checkpoints are stamped with.
	cycle uint64
}

// snapshot captures the whole-device state. Only valid between
// iterations (after commit), when every port's buffered intents are
// empty and shared state is quiescent. Sleeping SMs are caught up to
// the device cycle first; they sleep on after it.
func (e *gpuEngine) snapshot() *GPUSnapshot {
	for i := range e.sms {
		if sm := &e.sms[i]; sm.asleep() {
			sm.catchUp(e.cycle)
		}
	}
	g := &GPUSnapshot{
		Cycle:             e.cycle,
		Src:               SrcSnap{Next: e.src.next, Limit: e.src.limit, Returned: append([]int(nil), e.src.returned...)},
		Data:              sortedCells(&e.shared.memory),
		SharedOutstanding: e.shared.outstanding,
	}
	for i := range e.sms {
		g.SMs = append(g.SMs, e.sms[i].snapshot())
	}
	return g
}

// run executes the device to completion.
func (e *gpuEngine) run() error {
	for {
		// The engine owns cancellation: one poll per device cycle at the
		// commit boundary (per-SM polling is disabled in buildGPU), so a
		// cancelled device always stops on a quiescent boundary where a
		// shutdown checkpoint is consistent.
		if e.cfg.Cancel != nil {
			select {
			case <-e.cfg.Cancel:
				if e.cfg.Checkpoint != nil {
					e.cfg.Checkpoint(&Checkpoint{Cycle: e.cycle, GPU: e.snapshot()})
				}
				return fmt.Errorf("%w at device cycle %d", ErrCancelled, e.cycle)
			default:
			}
		}
		done, err := e.step()
		if done || err != nil {
			return err
		}
		if n := e.cfg.CheckpointEvery; n > 0 && e.cfg.Checkpoint != nil && e.cycle%n == 0 {
			e.cfg.Checkpoint(&Checkpoint{Cycle: e.cycle, GPU: e.snapshot()})
		}
	}
}

// step runs one device cycle: every SM's dispatch turn, the compute
// phase, and the commit phase. done reports that every SM finished
// before the cycle began.
func (e *gpuEngine) step() (done bool, err error) {
	// Commit-side bookkeeping (also runs before the first cycle so a
	// grid no SM can ever hold fails fast): give every SM a dispatch
	// turn in index order, then settle termination.
	// A turn with the source drained places nothing, so none is given;
	// a sleeping SM whose turn could place a CTA is caught up and woken
	// first (sleep.go).
	allDone, anyLive := true, false
	for i := range e.sms {
		sm := &e.sms[i]
		if e.src.empty() {
			break
		}
		if sm.finished() {
			continue
		}
		if sm.asleep() && sm.liveCTAs < sm.spec.ConcCTAs {
			sm.catchUp(e.cycle)
			sm.wake = 0
		}
		sm.dispatchCTAs()
	}
	for i := range e.sms {
		sm := &e.sms[i]
		if !sm.finished() {
			allDone = false
		}
		if sm.liveCTAs > 0 {
			anyLive = true
		}
	}
	if allDone {
		return true, nil
	}
	if !anyLive && !e.src.empty() {
		// No SM holds a CTA, none could launch one, and nothing is in
		// flight: the remaining CTAs can never be placed.
		return false, fmt.Errorf("sim: %d CTAs undispatchable (register file too small for one CTA)",
			e.src.remaining())
	}

	// Compute phase: every unfinished SM advances one cycle against
	// the committed shared state, a sleeping one by skipping its turn
	// until its wake (sleep.go). The first SM to fail ends the run.
	for i := range e.sms {
		sm := &e.sms[i]
		if sm.finished() || sm.wake > e.cycle {
			continue
		}
		sm.catchUp(e.cycle)
		if err := stepContained(i, sm); err != nil {
			return false, fmt.Errorf("sim: SM %d: %w", i, err)
		}
	}

	// Commit phase: apply every SM's buffered shared-state effects in
	// index order.
	for i := range e.ports {
		e.ports[i].commit()
	}
	e.cycle++
	return false, nil
}
