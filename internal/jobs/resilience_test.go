package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"regvirt/internal/faultinject"
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
// with.
func TestAdmissionLimits(t *testing.T) {
	if QueueCap != 1024 || ShedDepth != 768 || AsyncMax != 4096 || AsyncTTL != 10*time.Minute {
		t.Errorf("limits = queue %d, shed %d, async %d/%v; want 1024, 768, 4096/10m",
			QueueCap, ShedDepth, AsyncMax, AsyncTTL)
	}
	p := NewPool(1)
	defer p.Close()
	if p.shedDepth != ShedDepth || p.asyncMax != AsyncMax {
		t.Errorf("pool runs shed %d, async %d; want the constants", p.shedDepth, p.asyncMax)
	}
}

// TestAsyncEviction: a tiny registry evicts finished records, counts
// them, and keeps their results addressable through the cache.
func TestAsyncEviction(t *testing.T) {
	p := NewPoolWith(Options{Workers: 2})
	p.asyncMax = 2
	defer p.Close()
	jobs := []Job{
		{Workload: "VectorAdd"},
		{Workload: "VectorAdd", PhysRegs: 512},
		{Workload: "VectorAdd", PhysRegs: 768},
		{Workload: "VectorAdd", PhysRegs: 528},
	}
	var ids []string
	for _, j := range jobs {
		id, err := p.SubmitAsync(j)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitDone(t, p, id)
	}
	m := p.Metrics()
	if m.AsyncTracked > 2 {
		t.Errorf("async_tracked = %d, want <= 2", m.AsyncTracked)
	}
	if m.JobsEvicted < 2 {
		t.Errorf("jobs_evicted = %d, want >= 2", m.JobsEvicted)
	}
	// Every ID — evicted or not — still resolves to a done result.
	for i, id := range ids {
		st, ok := p.Status(id)
		if !ok || st.State != "done" || st.Result == nil {
			t.Errorf("job %d (%s): status %+v, want done via cache fallback", i, id, st)
		}
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

// TestAsyncFailedRecordIsRetriable: resubmitting a failed async job
// re-runs it instead of pinning the failure forever.
func TestAsyncFailedRecordIsRetriable(t *testing.T) {
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
	// First run fails on the injected fault.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := p.Status(id)
		if st.State == "failed" {
			break
		}
		if st.State == "done" {
			t.Fatal("first run succeeded; injected fault never fired")
		}
		if time.Now().After(deadline) {
			t.Fatal("first run never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	id2, err := p.SubmitAsync(job)
	if err != nil || id2 != id {
		t.Fatalf("resubmit: id %s err %v", id2, err)
	}
	waitDone(t, p, id)
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
