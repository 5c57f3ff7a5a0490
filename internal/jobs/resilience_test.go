package jobs

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs/sched"
)

// TestCacheFillPanicDoesNotPoison: a panicking fill must release its
// waiters with an error, evict the flight, and leave the key usable.
func TestCacheFillPanicDoesNotPoison(t *testing.T) {
	c := NewCache[string, int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Do")
			}
		}()
		c.Do(context.Background(), "k", func() (int, error) { panic("fill exploded") })
	}()
	if st := c.Stats(); st.Failures != 1 || st.Entries != 0 {
		t.Fatalf("after panicking fill: %+v, want 1 failure, 0 entries", st)
	}
	// The key retries cleanly.
	v, outcome, err := c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || outcome != Miss {
		t.Fatalf("retry after panic: v=%d outcome=%v err=%v", v, outcome, err)
	}
}

// TestCacheFillPanicReleasesWaiters: goroutines deduped onto a
// panicking flight get an error, not a hang or a zero value.
func TestCacheFillPanicReleasesWaiters(t *testing.T) {
	c := NewCache[string, int]()
	enter := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(enter)
			<-release
			panic("fill exploded")
		})
	}()
	<-enter
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters join the flight
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters hung on a panicked flight")
	}
	for i, err := range errs {
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter %d: err = %v, want nil (re-fill) or panicked-flight error", i, err)
		}
	}
}

// TestSubmitPanicBecomesPanicError: an injected worker panic reaches
// the submitter as a typed *PanicError; the same job retried succeeds
// (no cached failure), and the pool keeps serving.
func TestSubmitPanicBecomesPanicError(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SitePoolTask, Kind: faultinject.KindPanic, Every: 1, Times: 1,
	})
	p := NewPoolWith(Options{Workers: 2, Faults: inj})
	defer p.Close()
	job := Job{Workload: "VectorAdd"}
	_, err := p.Submit(context.Background(), job)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
	if pe.Stack == "" {
		t.Error("PanicError carries no stack")
	}
	res, err := p.Submit(context.Background(), job)
	if err != nil || res == nil || res.Cycles == 0 {
		t.Fatalf("retry after contained panic: res=%v err=%v", res, err)
	}
	if got := p.Metrics().PanicsRecovered; got == 0 {
		t.Error("panics_recovered not counted")
	}
	if st := p.results.Stats(); st.Entries != 1 {
		t.Errorf("result cache entries = %d, want 1 (no cached failure)", st.Entries)
	}
}

// TestExecPanicContained: Exec's contract matches Submit's.
func TestExecPanicContained(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	err := p.Exec(context.Background(), func() error { panic("figure code exploded") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
	// The worker survived.
	if err := p.Exec(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("Exec after contained panic: %v", err)
	}
}

// TestAdmissionLimits pins the fixed admission limits every pool runs
// with, and that the scheduler runs at ShedDepth: with the one worker
// held, the pool turns overloaded at exactly ShedDepth queued tasks,
// and the next unique submit is shed there.
func TestAdmissionLimits(t *testing.T) {
	if ShedDepth != 768 || AsyncMax != 4096 {
		t.Errorf("limits = shed %d, async %d; want 768, 4096", ShedDepth, AsyncMax)
	}
	p := NewPool(1)
	defer p.Close()
	if p.asyncMax != AsyncMax {
		t.Errorf("pool runs async %d; want AsyncMax", p.asyncMax)
	}
	block, held := make(chan struct{}), make(chan struct{})
	defer close(block)
	go p.Exec(context.Background(), func() error { close(held); <-block; return nil })
	<-held
	for i := 0; i < ShedDepth; i++ {
		if p.Overloaded() {
			t.Fatalf("overloaded at %d queued tasks, want %d", i, ShedDepth)
		}
		if err := p.sched.Enqueue(&sched.Task{Exempt: true, Do: func() {}}); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Overloaded() {
		t.Fatalf("not overloaded at %d queued tasks", ShedDepth)
	}
	var oe *OverloadError
	if _, err := p.Submit(context.Background(), Job{Workload: "VectorAdd"}); !errors.As(err, &oe) || oe.QueueDepth != ShedDepth {
		t.Fatalf("submit at the shed depth: %v, want *OverloadError at depth %d", err, ShedDepth)
	}
}

// TestAsyncEviction pins the bounds of the async bookkeeping at
// AsyncMax = 2: the running set sheds past 2, the failure records keep
// the newest 2, finished jobs resolve through the result cache, and
// without a store a finished job the cache has evicted is a 404.
func TestAsyncEviction(t *testing.T) {
	t.Run("running", func(t *testing.T) {
		p := NewPoolWith(Options{Workers: 1})
		p.asyncMax = 2
		defer p.Close()
		// Hold the only worker so the async jobs stay running.
		block, held := make(chan struct{}), make(chan struct{})
		release := sync.OnceFunc(func() { close(block) })
		defer release()
		go p.Exec(context.Background(), func() error { close(held); <-block; return nil })
		<-held
		var ids []string
		for _, regs := range []int{512, 768} {
			id, err := p.SubmitAsync(Job{Workload: "VectorAdd", PhysRegs: regs})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		var oe *OverloadError
		if _, err := p.SubmitAsync(Job{Workload: "VectorAdd", PhysRegs: 1024}); !errors.As(err, &oe) {
			t.Fatalf("third async submit: %v, want *OverloadError", err)
		}
		if m := p.Metrics(); m.Shed != 1 {
			t.Errorf("shed = %d, want 1", m.Shed)
		}
		release()
		for _, id := range ids {
			waitDone(t, p, id)
			if st, ok := p.Status(id); !ok || st.Result == nil {
				t.Errorf("job %s: status %+v, want done through the result cache", id, st)
			}
		}
	})
	t.Run("failures", func(t *testing.T) {
		inj := faultinject.New(1, faultinject.Rule{Site: faultinject.SitePoolTask, Kind: faultinject.KindError, Every: 1})
		p := NewPoolWith(Options{Workers: 1, Faults: inj})
		p.asyncMax = 2
		defer p.Close()
		var ids []string
		for _, regs := range []int{512, 768, 1024} {
			id, err := p.SubmitAsync(Job{Workload: "VectorAdd", PhysRegs: regs})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			if st := waitFinished(t, p, id); st.State != "failed" {
				t.Fatalf("job %s: %+v, want failed", id, st)
			}
		}
		p.mu.Lock()
		records := len(p.failures.byID)
		p.mu.Unlock()
		if records != 2 {
			t.Errorf("%d failure records, want 2", records)
		}
		if st, ok := p.Status(ids[0]); ok {
			t.Errorf("oldest failure still tracked: %+v", st)
		}
	})
	t.Run("evicted-result", func(t *testing.T) {
		p, ts := newTestServer(t, 1)
		SetResultCacheBound(p, 1)
		var ids []string
		for _, regs := range []int{512, 768} {
			id, err := p.SubmitAsync(Job{Workload: "VectorAdd", PhysRegs: regs})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			waitFinished(t, p, id)
		}
		// The second job's fill evicted the first result, already polled,
		// to keep the cache at one entry: the job that just finished is
		// done, the older one is unknown.
		if ev := p.Metrics().ResultCache.Evictions; ev != 1 {
			t.Fatalf("result cache evictions = %d, want 1", ev)
		}
		for i, want := range []int{http.StatusNotFound, http.StatusOK} {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[i])
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET /v1/jobs/{id} of job %d: HTTP %d, want %d", i, resp.StatusCode, want)
			}
		}
	})
}

// waitFinished polls Status until the job leaves the running set and
// returns its status (zero when the job is unknown).
func waitFinished(t *testing.T, p *Pool, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := p.Status(id)
		if !ok || st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitDone(t *testing.T, p *Pool, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := p.Status(id)
		if ok && st.State != "running" {
			if st.State != "done" {
				t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncFailedRecordIsRetriable: a failed async job is retried by an
// async resubmit, and a sync submit finishes it as well. Either way its
// Status is done and its failure record goes: a result outranks it.
func TestAsyncFailedRecordIsRetriable(t *testing.T) {
	for _, retry := range []string{"async", "sync"} {
		t.Run(retry, func(t *testing.T) {
			inj := faultinject.New(1, faultinject.Rule{
				Site: faultinject.SitePoolTask, Kind: faultinject.KindError, Every: 1, Times: 1,
			})
			p := NewPoolWith(Options{Workers: 1, Faults: inj})
			defer p.Close()
			job := Job{Workload: "VectorAdd"}
			id, err := p.SubmitAsync(job)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitFinished(t, p, id); st.State != "failed" {
				t.Fatalf("first run: %+v, want failed on the injected fault", st)
			}
			if retry == "async" {
				if id2, err := p.SubmitAsync(job); err != nil || id2 != id {
					t.Fatalf("resubmit: id %s err %v", id2, err)
				}
			} else if _, err := p.Submit(context.Background(), job); err != nil {
				t.Fatal(err)
			}
			waitDone(t, p, id)
			p.mu.Lock()
			records := len(p.failures.byID)
			p.mu.Unlock()
			if records != 0 {
				t.Errorf("%d failure records, want 0", records)
			}
		})
	}
}

// TestCloseDuringSubmissions: concurrent Close and Submit must never
// panic (send on closed channel); every submission either completes or
// reports ErrClosed/ctx errors.
func TestCloseDuringSubmissions(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := p.Submit(context.Background(), Job{Workload: "VectorAdd", PhysRegs: 512 + 16*(i%4)})
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("submit %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(start)
	time.Sleep(time.Millisecond)
	p.Close()
	wg.Wait()
	// Closed pool refuses politely.
	if _, err := p.Submit(context.Background(), Job{Workload: "VectorAdd"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := p.SubmitAsync(Job{Workload: "VectorAdd"}); !errors.Is(err, ErrClosed) {
		t.Errorf("async submit after close: %v, want ErrClosed", err)
	}
}
