package sim

import (
	"fmt"
	"runtime/debug"
	"sync"

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
// The device steps on a two-phase cycle engine:
//
//	compute — every SM advances one cycle touching only SM-private
//	          state; shared memory is read through its phasedPort as
//	          of the previous commit, and all shared-state effects
//	          (stores, DRAM token movement) are buffered as intents.
//	commit  — the buffered intents are applied in SM index order, then
//	          every SM gets a CTA-dispatch turn, again in index order.
//
// Because compute phases are mutually independent and commits happen in
// a fixed order, running the compute phase on cfg.GPUParallel
// goroutines — the engine's own plus GPUParallel-1 helpers, with a
// barrier at each phase boundary — produces results byte-identical to
// stepping the SMs sequentially; the knob trades wall-clock only.
// GPUParallel <= 1 is the sequential reference engine.
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
// device is byte-identical to the uninterrupted one at any GPUParallel
// setting.
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
	for i, sm := range eng.sms {
		if err := sm.restore(snap.SMs[i]); err != nil {
			return nil, fmt.Errorf("%w: SM %d: %w", ErrBadCheckpoint, i, err)
		}
	}
	eng.cycle = snap.Cycle
	if err := eng.run(); err != nil {
		return nil, err
	}
	return eng.finish(), nil
}

// buildGPU constructs the shared state, the 16 SMs and their phased
// ports — everything RunGPU and ResumeGPU have in common before any
// CTA placement. Per-SM cancellation polling is disabled: the engine
// polls Cancel once per device cycle at the commit boundary, which is
// both faster than the per-SM cancelCheckEvery granularity and the only
// point where a cancellation checkpoint is consistent.
func buildGPU(cfg *Config, spec *LaunchSpec) (*gpuEngine, error) {
	// Validate once (also applies defaulting to cfg).
	if err := validate(cfg, spec); err != nil {
		return nil, err
	}
	shared := &gpuShared{memory: newMemory(), tokensPerCycle: dramTokensPerCycle}
	src := &ctaSource{limit: spec.GridCTAs}

	sms := make([]*SM, arch.NumSMs)
	ports := make([]*phasedPort, arch.NumSMs)
	for i := range sms {
		sm, err := newSM(*cfg, *spec)
		if err != nil {
			return nil, err
		}
		sm.cfg.Cancel = nil
		ports[i] = &phasedPort{shared: shared, smIndex: i}
		sm.mem = ports[i]
		sm.src = src
		sm.deferDispatch = true
		sm.smID = i
		sms[i] = sm
	}
	return &gpuEngine{cfg: *cfg, sms: sms, ports: ports, src: src, shared: shared}, nil
}

// distribute makes the initial CTA placement: round-robin across SMs
// (GigaThread-style), one CTA per SM per round, so a small grid spreads
// instead of piling onto the first SMs.
func (e *gpuEngine) distribute() {
	for slot := 0; slot < len(e.sms[0].ctaSlots) && !e.src.empty(); slot++ {
		for _, sm := range e.sms {
			if sm.ctaSlots[slot] == nil {
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
	out := &GPUResult{Stores: e.shared.global}
	for _, sm := range e.sms {
		res := sm.finalize()
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

// stepContained runs one SM cycle, converting a panic into an error.
// On a compute-phase worker goroutine an uncontained panic would kill
// the whole process (no caller can recover it), so the device engine
// — both its parallel and sequential paths, which must behave
// identically — turns panics into run failures. The single-SM Run
// keeps natural panic propagation; its callers (the jobs layer) do
// their own containment.
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
	sms    []*SM
	ports  []*phasedPort
	src    *ctaSource
	shared *gpuShared
	errs   []error
	// cycle counts engine iterations (every unfinished SM steps once per
	// iteration) — the device clock checkpoints are stamped with.
	cycle uint64

	// The compute phase runs on `workers` partitions (SM i belongs to
	// partition i mod workers): the engine goroutine steps partition 0
	// itself, and helper p steps partition p when start[p-1] fires.
	workers int
	start   []chan struct{}
	wg      sync.WaitGroup
}

// snapshot captures the whole-device state. Only valid between
// iterations (after commit), when every port's buffered intents are
// empty and shared state is quiescent.
func (e *gpuEngine) snapshot() *GPUSnapshot {
	g := &GPUSnapshot{
		Cycle:             e.cycle,
		Src:               SrcSnap{Next: e.src.next, Limit: e.src.limit, Returned: append([]int(nil), e.src.returned...)},
		Data:              sortedCells(&e.shared.memory),
		SharedOutstanding: e.shared.outstanding,
	}
	for _, sm := range e.sms {
		g.SMs = append(g.SMs, sm.snapshot())
	}
	return g
}

// startWorkers sizes the compute partitions from cfg.GPUParallel
// (values <= 1 step every SM on the engine goroutine, the sequential
// reference; values above the SM count are clamped) and launches one
// persistent helper per partition beyond the first. The static
// partition leaves no cross-worker state, no work stealing, and
// therefore nothing order-dependent. stop ends the helpers and returns
// once they have exited.
func (e *gpuEngine) startWorkers() (stop func()) {
	e.workers = min(max(e.cfg.GPUParallel, 1), len(e.sms))
	e.errs = make([]error, len(e.sms))
	e.start = make([]chan struct{}, e.workers-1)
	var exited sync.WaitGroup
	for p := range e.start {
		e.start[p] = make(chan struct{}, 1)
		exited.Add(1)
		go func(ch chan struct{}, part int) {
			defer exited.Done()
			for range ch {
				e.compute(part)
				e.wg.Done()
			}
		}(e.start[p], p+1)
	}
	return func() {
		for _, ch := range e.start {
			close(ch)
		}
		exited.Wait()
	}
}

// compute steps every unfinished SM of one partition.
func (e *gpuEngine) compute(part int) {
	for i := part; i < len(e.sms); i += e.workers {
		if sm := e.sms[i]; !sm.finished() {
			e.errs[i] = stepContained(i, sm)
		}
	}
}

// run executes the device to completion.
func (e *gpuEngine) run() error {
	defer e.startWorkers()()
	for {
		// The engine owns cancellation: one poll per device cycle at the
		// commit boundary (per-SM polling is disabled in buildGPU), so a
		// cancelled device always stops on a quiescent boundary where a
		// shutdown checkpoint is consistent.
		if e.cfg.Cancel != nil {
			select {
			case <-e.cfg.Cancel:
				if e.cfg.CheckpointOnCancel && e.cfg.Checkpoint != nil {
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
	allDone, anyLive := true, false
	for _, sm := range e.sms {
		if !sm.finished() {
			sm.dispatchCTAs()
		}
	}
	for _, sm := range e.sms {
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
	// the committed shared state, the engine goroutine taking
	// partition 0 while the helpers take the rest.
	e.wg.Add(len(e.start))
	for _, ch := range e.start {
		ch <- struct{}{}
	}
	e.compute(0)
	e.wg.Wait()
	for i := range e.sms {
		if e.errs[i] != nil {
			return false, fmt.Errorf("sim: SM %d: %w", i, e.errs[i])
		}
	}

	// Commit phase: apply every SM's buffered shared-state effects in
	// index order.
	for _, p := range e.ports {
		p.commit()
	}
	e.cycle++
	return false, nil
}
