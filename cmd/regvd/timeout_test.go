package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
)

// TestStalledClientDisconnected holds regvd to its header timeout: a
// client that opens a connection and never finishes its request line
// is disconnected once readHeaderTimeout passes, instead of holding a
// goroutine and a file descriptor for as long as it likes.
func TestStalledClientDisconnected(t *testing.T) {
	d := serveDaemon(t, config{addr: "127.0.0.1:0", workers: 1, drain: time.Second})

	conn, err := net.Dial("tcp", d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/jo")); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before it closes; either way the
	// connection must end.
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("server still holds the stalled connection after %v", time.Since(start).Round(time.Second))
	case err != nil && !errors.Is(err, syscall.ECONNRESET):
		t.Fatalf("read: %v, want the connection closed", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("disconnected after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// serveDaemon boots a daemon for cfg and stops it when the test ends.
func serveDaemon(t *testing.T, cfg config) *daemon {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- d.serve(stop) }()
	t.Cleanup(func() {
		stop <- syscall.SIGTERM
		<-served
	})
	return d
}

// TestStalledBodyDisconnected holds regvd to its body deadline, as
// shard and as router: a client that sends complete headers and then
// stalls is disconnected once jobs.BodyReadTimeout passes, whether it
// stalls mid-value or after a complete value, with a Content-Length
// promising a few bytes more.
func TestStalledBodyDisconnected(t *testing.T) {
	t.Parallel()
	const body = `{"workload":"VectorAdd"}`
	stalls := map[string]struct {
		sent          string
		contentLength int
	}{
		"mid-value":   {body[:len(body)/2], len(body)},
		"after-value": {body, len(body) + 5},
	}
	for name, cfg := range map[string]config{
		"shard":  {addr: "127.0.0.1:0", workers: 1, drain: time.Second},
		"router": {addr: "127.0.0.1:0", clusterMode: true, peers: "s1=http://127.0.0.1:1"},
	} {
		for stall, st := range stalls {
			t.Run(name+"/"+stall, func(t *testing.T) {
				t.Parallel()
				d := serveDaemon(t, cfg)
				conn, err := net.Dial("tcp", d.addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: regvd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
					st.contentLength, st.sent); err != nil {
					t.Fatal(err)
				}
				// The server answers 400 (the body read timed out) and
				// closes.
				start := time.Now()
				conn.SetReadDeadline(start.Add(jobs.BodyReadTimeout + 10*time.Second))
				_, err = io.ReadAll(conn)
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout():
					t.Fatalf("server still holds the stalled body after %v", time.Since(start).Round(time.Second))
				case err != nil && !errors.Is(err, syscall.ECONNRESET):
					t.Fatalf("read: %v, want the connection closed", err)
				}
				if waited := time.Since(start); waited < jobs.BodyReadTimeout/2 {
					t.Errorf("disconnected after %v, before the %v body deadline", waited, jobs.BodyReadTimeout)
				}
			})
		}
	}
}

// TestSlowSyncSubmitAnswers: the body deadline covers the body only. A
// sync submit whose simulation (slowed by injected latency) outlasts
// the deadline still gets its result.
func TestSlowSyncSubmitAnswers(t *testing.T) {
	t.Parallel()
	delay := jobs.BodyReadTimeout + 2*time.Second
	d := serveDaemon(t, config{addr: "127.0.0.1:0", workers: 1, drain: time.Second,
		faults: fmt.Sprintf("%s:latency:1:%d", faultinject.SitePoolTask, delay.Milliseconds())})
	start := time.Now()
	resp, err := http.Post("http://"+d.addr()+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"VectorAdd"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Cycles == 0 {
		t.Fatalf("HTTP %d, cycles %d; want 200 with a result", resp.StatusCode, res.Cycles)
	}
	if waited := time.Since(start); waited < delay {
		t.Errorf("answered after %v, before the injected %v: the latency did not apply", waited, delay)
	}
}
