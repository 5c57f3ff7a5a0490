package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"regvirt/internal/cluster"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
)

// TestGracefulShutdown drives the real daemon loop through SIGTERM:
// an in-flight sync job must complete with its result, new submissions
// after the signal must be refused, and serve must return well inside
// the drain window.
func TestGracefulShutdown(t *testing.T) {
	d, err := newDaemon(config{
		addr:    "127.0.0.1:0",
		workers: 2,
		drain:   20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.addr()

	stop := make(chan os.Signal, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.serve(stop) }()

	// A whole-GPU job is the slowest thing the service runs — plenty of
	// time to signal while its handler is still blocked on the result.
	var (
		wg       sync.WaitGroup
		inflight *http.Response
		body     jobs.Result
		postErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"BackProp","gpu":true}`))
		if err != nil {
			postErr = err
			return
		}
		defer resp.Body.Close()
		inflight = resp
		postErr = json.NewDecoder(resp.Body).Decode(&body)
	}()

	// Wait until the job is actually executing on a worker.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("metrics poll: %v", err)
		}
		var m jobs.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a worker")
		}
		time.Sleep(2 * time.Millisecond)
	}

	stop <- syscall.SIGTERM

	// New submissions are refused promptly: the listener closes as part
	// of Shutdown, so fresh connections fail to dial (or, if a raced
	// connection sneaks through, get a non-200).
	refused := false
	refuseDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(refuseDeadline) {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"VectorAdd"}`))
		if err != nil {
			refused = true
			break
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("new submissions still accepted 5s after SIGTERM")
	}

	// The in-flight job drains to a complete, valid result.
	wg.Wait()
	if postErr != nil {
		t.Fatalf("in-flight job: %v", postErr)
	}
	if inflight.StatusCode != http.StatusOK {
		t.Errorf("in-flight job: status %d, want 200", inflight.StatusCode)
	}
	if body.ID == "" || body.Cycles == 0 {
		t.Errorf("in-flight job: incomplete result %+v", body)
	}

	// serve returns inside the drain window (generous margin for -race).
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(d.cfg.drain + 10*time.Second):
		t.Fatal("serve did not return within the drain window")
	}
}

// TestShutdownEndsInboundShipStream: a shard holding a peer's open ship
// stream still exits promptly on SIGTERM. The stream is never idle, so
// the drain would otherwise wait for it until its next message's read
// deadline (10 s) ran out, or the drain window.
func TestShutdownEndsInboundShipStream(t *testing.T) {
	d, err := newDaemon(config{
		addr:    "127.0.0.1:0",
		workers: 1,
		drain:   20 * time.Second,
		dataDir: t.TempDir(),
		shard:   "sb",
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.serve(stop) }()

	// A peer shard's shipper: its first resync opens the stream.
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := cluster.NewShipper("p", "sb", "http://"+d.addr(), st)
	sh.Start()
	defer sh.Close()
	for deadline := time.Now().Add(10 * time.Second); sh.Status().Resyncs == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the peer's stream never delivered its resync")
		}
	}

	start := time.Now()
	stop <- syscall.SIGTERM
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Errorf("shutdown took %v with a ship stream open, want well under its 10 s message deadline", took)
		}
	case <-time.After(d.cfg.drain + 10*time.Second):
		t.Fatal("serve did not return within the drain window")
	}
}
