//go:build !race

package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShipQueueReusesAckedBatch: an acked batch's buffer is kept and
// queues the next batch, so Queue allocates nothing while the frames
// fit it; a buffer past shipSpareMax is not kept. The race detector
// allocates on its own, hence the build tag.
func TestShipQueueReusesAckedBatch(t *testing.T) {
	srv, _ := newStandby(t)
	hs := httptest.NewServer(srv.Handler(http.NotFoundHandler()))
	t.Cleanup(hs.Close)
	st := openStore(t)
	sh, _ := startCountedShipper(t, st, hs.URL, time.Hour)
	spare := func() []byte {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.spare
	}

	j := tinyJob(0)
	if err := st.Accept(j.Key(), j, false); err != nil {
		t.Fatal(err)
	}
	kept := spare()
	if kept == nil {
		t.Fatal("an acked batch left no spare buffer")
	}
	frame := make([]byte, cap(kept)-shipHeaderSize)
	allocs := testing.AllocsPerRun(100, func() {
		sh.Queue(1, frame)
		// What an acked round trip does with the batch's buffer.
		sh.mu.Lock()
		sh.spare, sh.queue, sh.queued = sh.queue, nil, 0
		sh.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("Queue of a frame that fits the spare: %v allocations, want 0", allocs)
	}

	big := tinyJob(1)
	big.Kernel += strings.Repeat("\n", shipSpareMax)
	if err := st.Accept(big.Key(), big, false); err != nil {
		t.Fatal(err)
	}
	if got := cap(spare()); got > shipSpareMax {
		t.Errorf("a %d-byte batch buffer was kept as the spare, want none past %d", got, shipSpareMax)
	}
}
