package sim

import "regvirt/internal/arch"

// Sim-phase profiling (opt-in via Config.Profile): per-SM cycle
// attribution plus a coarse warp-state timeline. The design constraint
// is that profiling must be invisible when off — the hot cycle loop
// pays exactly one nil check (step branches to profiledSchedule only
// when s.prof is set), no allocation, and no change to any counter the
// Result already carries. The determinism tests pin this down: a run
// with Profile on produces byte-identical Cycles/Stores/Stalls to the
// same run with Profile off.
//
// Attribution classifies every cycle by the *first* cause that
// explains why the schedulers did or did not issue, in priority order:
//
//	issued        — at least one warp issued this cycle
//	operand stall — register-allocation pressure: the operand collector
//	                could not claim a destination bank (allocStalled
//	                covers throttle denial and bank exhaustion; a Bank
//	                stall-counter delta covers per-attempt exhaustion)
//	memory stall  — the memory port or MSHRs were full
//	hazard stall  — scoreboard RAW/WAW/predicate hazards
//	commit stall  — nothing ready but results are still in flight
//	idle          — no resident work could make progress
//
// The priority mirrors the pipeline: an issue beats any stall, and
// structural (operand/memory) pressure explains a zero-issue cycle
// better than data hazards, which only matter when the structural path
// was clear.

const (
	// profileSampleEvery is the warp-timeline sampling cadence in
	// cycles. 1024 keeps a 50M-cycle watchdog-bounded run to at most
	// profileMaxSamples samples long before the cap engages on typical
	// benchmark lengths.
	profileSampleEvery = 1024
	// profileMaxSamples caps the timeline so pathological runs cannot
	// grow a Result without bound; overflow is counted, not silently
	// dropped.
	profileMaxSamples = 4096
	// ProfileAbsent marks an unoccupied warp slot in a WarpSample.
	ProfileAbsent = 0xFF
)

// WarpSample is one timeline sample: the state of every warp slot at a
// sampled cycle. States holds warpState values (wReady..wFinished)
// indexed by warp slot, with ProfileAbsent for slots with no resident
// warp.
type WarpSample struct {
	Cycle  uint64
	States []uint8
}

// Profile is the per-SM cycle attribution a profiled run accumulates.
// All fields are exported so encoding/gob round-trips it through
// checkpoints; the jobs layer re-exports an aggregated view on the job
// result.
type Profile struct {
	// Cycle attribution; the six classes partition every simulated
	// cycle, so their sum equals Result.Cycles.
	IssueCycles        uint64
	OperandStallCycles uint64
	MemStallCycles     uint64
	HazardStallCycles  uint64
	CommitStallCycles  uint64
	IdleCycles         uint64

	// WarpIssued counts issued instructions per warp slot.
	WarpIssued []uint64

	// Samples is the warp-state timeline (every profileSampleEvery
	// cycles, capped at profileMaxSamples); SamplesDropped counts
	// samples lost to the cap.
	Samples        []WarpSample
	SamplesDropped uint64
}

func newProfile() *Profile {
	return &Profile{WarpIssued: make([]uint64, arch.MaxWarpsPerSM)}
}

// ProfileStateName names a WarpSample state value for reports and
// timeline exports (the warpState enum itself stays unexported).
func ProfileStateName(s uint8) string {
	if s == ProfileAbsent {
		return "absent"
	}
	switch warpState(s) {
	case wReady:
		return "ready"
	case wPending:
		return "pending"
	case wBarrier:
		return "barrier"
	case wSpilled:
		return "spilled"
	case wFinished:
		return "finished"
	}
	return "unknown"
}

// TotalCycles returns the sum of the attribution classes — equal to
// Result.Cycles for a complete run.
func (p *Profile) TotalCycles() uint64 {
	return p.IssueCycles + p.OperandStallCycles + p.MemStallCycles +
		p.HazardStallCycles + p.CommitStallCycles + p.IdleCycles
}

// copyProfile deep-copies a profile for checkpoint snapshots.
func copyProfile(p *Profile) *Profile {
	if p == nil {
		return nil
	}
	out := *p
	out.WarpIssued = append([]uint64(nil), p.WarpIssued...)
	out.Samples = make([]WarpSample, len(p.Samples))
	for i, smp := range p.Samples {
		out.Samples[i] = WarpSample{Cycle: smp.Cycle, States: append([]uint8(nil), smp.States...)}
	}
	return &out
}

// mergeProfile adds src's counters into dst (whole-device aggregation).
func mergeProfile(dst, src *Profile) {
	dst.IssueCycles += src.IssueCycles
	dst.OperandStallCycles += src.OperandStallCycles
	dst.MemStallCycles += src.MemStallCycles
	dst.HazardStallCycles += src.HazardStallCycles
	dst.CommitStallCycles += src.CommitStallCycles
	dst.IdleCycles += src.IdleCycles
	for i, n := range src.WarpIssued {
		if i < len(dst.WarpIssued) {
			dst.WarpIssued[i] += n
		}
	}
	dst.SamplesDropped += src.SamplesDropped
}

// profiledSchedule wraps schedule with cycle attribution. It reads the
// stall counters the issue stage already maintains (before/after
// deltas) so profiling never adds counter updates of its own to the
// un-profiled path.
func (s *SM) profiledSchedule() {
	pre := s.res.Stalls
	issued := s.schedule()
	p := s.prof
	switch {
	case issued:
		p.IssueCycles++
	case s.allocStalled || s.res.Stalls.Bank > pre.Bank:
		p.OperandStallCycles++
	case s.res.Stalls.MemPort > pre.MemPort:
		p.MemStallCycles++
	case s.res.Stalls.Hazard > pre.Hazard:
		p.HazardStallCycles++
	case s.wbQueue.len() > 0:
		p.CommitStallCycles++
	default:
		p.IdleCycles++
	}
	if s.cycle%profileSampleEvery == 0 {
		s.profileSample()
	}
}

// profileSample records one warp-timeline sample.
func (s *SM) profileSample() {
	p := s.prof
	if len(p.Samples) >= profileMaxSamples {
		p.SamplesDropped++
		return
	}
	states := make([]uint8, arch.MaxWarpsPerSM)
	for i := range states {
		states[i] = ProfileAbsent
	}
	for _, cta := range s.ctaSlots {
		if cta == nil {
			continue
		}
		for _, w := range cta.warps {
			if w.slot >= 0 && w.slot < len(states) {
				states[w.slot] = uint8(w.state)
			}
		}
	}
	p.Samples = append(p.Samples, WarpSample{Cycle: s.cycle, States: states})
}
