package sim

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

// NewLaunchedGPU builds a whole-device run with its first CTAs placed
// and its compute helpers started; stop ends the helpers.
func NewLaunchedGPU(cfg Config, spec LaunchSpec) (e *gpuEngine, stop func(), err error) {
	e, err = buildGPU(&cfg, &spec)
	if err != nil {
		return nil, nil, err
	}
	e.distribute()
	return e, e.startWorkers(), nil
}

// Cycle runs one device cycle: dispatch turns, compute and commit.
func (e *gpuEngine) Cycle() error {
	_, err := e.step()
	return err
}

// CTAs sums CTAs() over the device's SMs.
func (e *gpuEngine) CTAs() (live, done int) {
	for _, sm := range e.sms {
		l, d := sm.CTAs()
		live, done = live+l, done+d
	}
	return live, done
}
