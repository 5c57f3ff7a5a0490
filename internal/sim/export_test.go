package sim

import (
	"regvirt/internal/compiler"
	"regvirt/internal/isa"
)

// Hooks for the external test package (alloc_test.go), which needs
// internal/workloads and so cannot be package sim itself.

// NewLaunchedSM builds a single-SM run with its first CTAs dispatched,
// ready to step.
func NewLaunchedSM(cfg Config, spec LaunchSpec) (*SM, error) {
	s, err := newSM(cfg, spec)
	if err != nil {
		return nil, err
	}
	s.dispatchCTAs()
	return s, nil
}

// Step advances the SM one cycle.
func (s *SM) Step() { s.step() }

// Advance is one iteration of the single-SM run loop: a sleeping SM is
// caught up to its wake, then one cycle is stepped with its checks. It
// returns the cycles the call covered.
func (s *SM) Advance() (uint64, error) {
	from := s.cycle
	if s.asleep() {
		s.catchUp(s.wake)
	}
	err := s.stepChecked()
	return s.cycle - from, err
}

// FinishStepped runs the SM to completion one cycle at a time, never
// sleeping: the reference the skip-equivalence test compares with.
func (s *SM) FinishStepped() (*Result, error) {
	s.stepEvery = true
	return s.runLoop()
}

// Finish runs the SM to completion as Run does.
func (s *SM) Finish() (*Result, error) { return s.runLoop() }

// Slept is how many cycles the SM skipped.
func (s *SM) Slept() uint64 { return s.slept }

// RunSequenceStepped is RunSequence stepped one cycle at a time.
func RunSequenceStepped(cfg Config, specs ...LaunchSpec) ([]*Result, error) {
	return runSequence(cfg, specs, func(s *SM) { s.stepEvery = true })
}

// CTAs reports the SM's resident and completed CTA counts; a window in
// which neither moves saw no CTA launch or exit.
func (s *SM) CTAs() (live, done int) { return s.liveCTAs, s.doneCTAs }

// NewLaunchedGPU builds a whole-device run with its first CTAs placed.
func NewLaunchedGPU(cfg Config, spec LaunchSpec) (*gpuEngine, error) {
	e, err := buildGPU(&cfg, &spec)
	if err != nil {
		return nil, err
	}
	e.distribute()
	return e, nil
}

// Cycle runs one device cycle: dispatch turns, compute and commit.
func (e *gpuEngine) Cycle() error {
	_, err := e.step()
	return err
}

// FinishStepped runs the device to completion with every SM stepped
// one cycle at a time, never sleeping.
func (e *gpuEngine) FinishStepped() (*GPUResult, error) {
	for i := range e.sms {
		e.sms[i].stepEvery = true
	}
	return e.Finish()
}

// Finish runs the device to completion as RunGPU does.
func (e *gpuEngine) Finish() (*GPUResult, error) {
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// Slept sums Slept() over the device's SMs.
func (e *gpuEngine) Slept() (n uint64) {
	for i := range e.sms {
		n += e.sms[i].slept
	}
	return n
}

// CTAs sums CTAs() over the device's SMs.
func (e *gpuEngine) CTAs() (live, done int) {
	for i := range e.sms {
		l, d := e.sms[i].CTAs()
		live, done = live+l, done+d
	}
	return live, done
}

// HungrySpec is pressure_test.go's register-hungry kernel, compiled
// for release, at its launch geometry.
func HungrySpec() (LaunchSpec, error) {
	k, err := compiler.Compile(isa.MustParse(hungrySrc), compiler.Options{TableBytes: 1024, ResidentWarps: 16})
	if err != nil {
		return LaunchSpec{}, err
	}
	return hungrySpec(k), nil
}

// Spills reports the SM's §8.1 spill count so far and how many of its
// warps are spilled now.
func (s *SM) Spills() (spills uint64, spilled int) {
	for _, cta := range s.slots() {
		if cta == nil {
			continue
		}
		for i := range cta.warps {
			if cta.warps[i].state == wSpilled {
				spilled++
			}
		}
	}
	return s.res.Spills, spilled
}
