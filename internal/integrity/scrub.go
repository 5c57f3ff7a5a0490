package integrity

import (
	"log/slog"
	"sync"
	"time"
)

// Report is one scrub pass's tally.
type Report struct {
	Scanned  int // files examined
	Corrupt  int // files that failed envelope verification
	Repaired int // corrupt files restored (re-simulated, or safely
	// dropped so the journal re-runs the job)
}

func (r *Report) Add(o Report) {
	r.Scanned += o.Scanned
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
}

// Scrubber runs Pass on a fixed interval until stopped. The walk and
// repair logic lives with whoever owns the files (the store); this
// type only owns the schedule so the daemon has one thing to start
// and stop.
type Scrubber struct {
	Every time.Duration
	Pass  func() Report
	Log   *slog.Logger

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// Start launches the background loop. A zero or negative interval, or
// a nil Pass, disables the scrubber (Start is a no-op).
func (s *Scrubber) Start() {
	if s.Every <= 0 || s.Pass == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.run(s.stop, s.done)
}

func (s *Scrubber) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.Every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rep := s.Pass()
			if s.Log != nil && rep.Corrupt > 0 {
				s.Log.Warn("scrub pass found corruption",
					"scanned", rep.Scanned,
					"corrupt", rep.Corrupt,
					"repaired", rep.Repaired)
			}
		}
	}
}

// Stop halts the loop and waits for an in-flight pass to finish.
func (s *Scrubber) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
