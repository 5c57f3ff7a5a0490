package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/jobs"
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
