package cluster

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
)

// shipCounter is a transport that counts the frame-shipping POSTs it
// carries.
type shipCounter struct {
	posts atomic.Int64
}

func (c *shipCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/cluster/ship" {
		c.posts.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// tinyJob is a distinct, short single-SM job: its kernel stores i, so
// no two values of i share a content address.
func tinyJob(i int) jobs.Job {
	return jobs.Job{
		Kernel: fmt.Sprintf(".kernel tiny\n.reg 2\n    movi r1, %d\n    st.global [r0+0], r1\n    exit\n", i),
		Mode:   "hwonly", GridCTAs: 1, ThreadsPerCTA: 32, ConcCTAs: 1,
	}
}

// startCountedShipper arms a shipper from pri to sb whose ship POSTs
// are counted, waits out its initial resync and zeroes the count.
func startCountedShipper(t *testing.T, pri, sb *testShard, flushEvery time.Duration) (*Shipper, *shipCounter) {
	t.Helper()
	counter := &shipCounter{}
	sh := NewShipper(pri.name, sb.name, sb.url, pri.st)
	sh.SetTransport(counter)
	sh.flushEvery = flushEvery
	sh.Start()
	t.Cleanup(sh.Close)
	waitFor(t, "initial resync", 10*time.Second, func() bool {
		st := sh.Status()
		return st.Resyncs == 1 && !st.PendingResync
	})
	counter.posts.Store(0)
	return sh, counter
}

// TestShipperDoneRidesAcceptShip pins the shipping discipline of a
// cold job: its accept ships synchronously, carrying the done frame of
// the job before it, and its own done frame waits for the next accept
// or the flusher's tick. N synchronous submits therefore cost N ship
// POSTs, not one per frame.
func TestShipperDoneRidesAcceptShip(t *testing.T) {
	ctx := context.Background()

	t.Run("next accept", func(t *testing.T) {
		sb := newTestShard(t, "sb")
		sb.serve("", "")
		pri := newTestShard(t, "p")
		// A tick that never fires within the test: only accepts ship.
		_, counter := startCountedShipper(t, pri, sb, time.Hour)
		const n = 12
		for i := 0; i < n; i++ {
			if _, err := pri.pool.Submit(ctx, tinyJob(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := counter.posts.Load(); got != n {
			t.Errorf("%d synchronous submits made %d ship POSTs, want %d", n, got, n)
		}
		// Each job journals an accept and a done. Every done but the
		// last has ridden the next job's accept ship.
		if _, last := sb.sb.State(pri.name); last != 2*n-1 {
			t.Errorf("standby holds seq %d after %d jobs, want %d", last, n, 2*n-1)
		}
	})

	t.Run("one tick", func(t *testing.T) {
		sb := newTestShard(t, "sb")
		sb.serve("", "")
		pri := newTestShard(t, "p")
		_, counter := startCountedShipper(t, pri, sb, 20*time.Millisecond)
		if _, err := pri.pool.Submit(ctx, tinyJob(0)); err != nil {
			t.Fatal(err)
		}
		// No accept follows: the done frame reaches the standby on the
		// flusher's tick, in a POST of its own.
		waitFor(t, "done frame on the standby", 5*time.Second, func() bool {
			_, last := sb.sb.State(pri.name)
			return last == 2
		})
		if got := counter.posts.Load(); got != 2 {
			t.Errorf("one submit and one tick made %d ship POSTs, want 2", got)
		}
	})
}

// TestStandbyHoldsOnlyShippedJournal: a primary checkpoints two jobs
// mid-run, they finish, and a restart compacts them out of its journal.
// The standby's copy of that shard must then hold nothing but the
// shipped journal and its sidecars: no checkpoint the primary cut
// reaches the standby's disk, so nothing there outlives its job.
func TestStandbyHoldsOnlyShippedJournal(t *testing.T) {
	sb := newTestShard(t, "sb")
	sb.serve("", "")
	pri := newTestShard(t, "p")
	sh := NewShipper(pri.name, sb.name, sb.url, pri.st)
	sh.Start()
	var ids []string
	for i := 0; i < 2; i++ {
		j := tinyJob(i)
		id := j.Key()
		ids = append(ids, id)
		if err := pri.st.Accept(id, j, false); err != nil {
			t.Fatal(err)
		}
		if err := pri.st.SaveCheckpoint(id, []byte("mid-run state")); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if err := pri.st.Done(id, &jobs.Result{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close() // the final flush delivers everything still queued

	// Restart the primary: Open compacts the finished jobs away, and the
	// new shipper's first resync installs that journal on the standby.
	if err := pri.st.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(pri.st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sh2 := NewShipper(pri.name, sb.name, sb.url, st)
	sh2.Start()
	t.Cleanup(sh2.Close)
	waitFor(t, "resync of the compacted journal", 10*time.Second, func() bool {
		gen, _ := sb.sb.State(pri.name)
		return gen == st.Generation()
	})

	if _, last := sb.sb.State(pri.name); last != 0 {
		t.Errorf("standby copy ends at seq %d after compaction, want an empty journal", last)
	}
	sdir := filepath.Join(sb.st.Dir(), "standby", pri.name)
	want := map[string]bool{"shipped.wal": true, "journal.gen": true, "fence.epoch": true}
	err = filepath.WalkDir(sdir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(sdir, path)
		if !want[rel] {
			t.Errorf("standby copy of %s holds %s; want only the shipped journal and its sidecars", pri.name, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShipAckBounded: the shipper reads a standby's ship ack under the
// same 1 MiB bound as its refusals. A standby answering a valid JSON
// ack padded past it fails the ship, so the stream stays marked for
// resync instead of the shipper buffering the whole body.
func TestShipAckBounded(t *testing.T) {
	pad := strings.Repeat("x", maxShipReply)
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, `{"gen":1,"last_seq":0,"applied":0,"pad":%q}`, pad)
	}))
	t.Cleanup(standby.Close)
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sh := NewShipper("p", "sb", standby.URL, st)
	sh.JournalRewritten(0) // marks the stream for resync, as Start does
	sh.flush()
	if got := sh.Status(); !got.PendingResync || got.Resyncs != 0 {
		t.Fatalf("after an oversized ack: pending resync %v, resyncs %d; want still pending, none done", got.PendingResync, got.Resyncs)
	}
}

// TestSlowStandbyHoldsOnlyItsAccept: the store only queues frames under
// its lock, and an accept ships after releasing it. Against a standby
// that answers frame batches after about a second, a Done of one job
// returns while another job's accept waits on its ship, and that accept
// returns only once its POST is answered.
func TestSlowStandbyHoldsOnlyItsAccept(t *testing.T) {
	const delay = time.Second
	sbStore, err := store.OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sbStore.Close() })
	standby := NewShardServer("sb", nil, nil, sbStore, nil).Handler(http.NotFoundHandler())
	var slow, answered atomic.Bool
	arrived := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() && jobs.QueryValue(r.URL.RawQuery, "snapshot") == "" {
			select {
			case arrived <- struct{}{}:
			default:
			}
			time.Sleep(delay)
			defer answered.Store(true) // before the response leaves the handler
		}
		standby.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sh := NewShipper("p", "sb", srv.URL, st)
	sh.flushEvery = time.Hour // only accepts ship
	sh.Start()
	t.Cleanup(sh.Close)
	waitFor(t, "initial resync", 10*time.Second, func() bool {
		s := sh.Status()
		return s.Resyncs == 1 && !s.PendingResync
	})

	finished, waiting := tinyJob(0), tinyJob(1)
	if err := st.Accept(finished.Key(), finished, false); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	accepted := make(chan error, 1)
	go func() {
		err := st.Accept(waiting.Key(), waiting, false)
		if err == nil && !answered.Load() {
			err = fmt.Errorf("Accept returned before its ship POST was answered")
		}
		accepted <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the accept's ship never reached the standby")
	}
	start := time.Now()
	if err := st.Done(finished.Key(), &jobs.Result{ID: finished.Key()}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > delay/2 {
		t.Errorf("Done took %v while another job's accept was shipping to a standby answering after %v", took, delay)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	slow.Store(false)
	if _, last := sbStore.State("p"); last != 2 {
		t.Errorf("standby holds seq %d after the two accepts, want 2", last)
	}
}

// TestConcurrentAcceptsShipTheirFrames: accepts from several goroutines
// share ship POSTs, and each still returns only once the standby holds
// its frame, whether its own POST or another accept's carried it.
func TestConcurrentAcceptsShipTheirFrames(t *testing.T) {
	sb := newTestShard(t, "sb")
	sb.serve("", "")
	pri := newTestShard(t, "p")
	// A tick that never fires within the test: only accepts ship.
	startCountedShipper(t, pri, sb, time.Hour)
	const workers, each = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j := tinyJob(w*each + i)
				if err := pri.st.Accept(j.Key(), j, false); err != nil {
					t.Error(err)
					return
				}
				recovered, err := sb.sb.Recover(pri.name)
				if err != nil {
					t.Error(err)
					return
				}
				found := false
				for _, rj := range recovered {
					found = found || rj.ID == j.Key()
				}
				if !found {
					t.Errorf("accept of job %d returned before the standby held its frame", w*each+i)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, last := sb.sb.State(pri.name); last != workers*each {
		t.Errorf("standby holds seq %d after %d accepts, want %d", last, workers*each, workers*each)
	}
}
