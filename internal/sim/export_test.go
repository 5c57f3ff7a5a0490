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
