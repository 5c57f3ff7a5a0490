package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func TestPartitionSetBlocksAndHeals(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	ps := NewPartitionSet()
	hc := &http.Client{Transport: ps.Transport(nil)}

	if resp, err := hc.Get(ts.URL); err != nil {
		t.Fatalf("unpartitioned request failed: %v", err)
	} else {
		resp.Body.Close()
	}

	host := ts.Listener.Addr().String()
	ps.Block(host)
	if !ps.Blocked(host) {
		t.Fatal("Blocked() = false after Block")
	}
	if _, err := hc.Get(ts.URL); err == nil {
		t.Fatal("partitioned request succeeded")
	} else if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned request error = %v, want ErrPartitioned", err)
	}

	// Other hosts stay reachable: the partition is per-target.
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	defer other.Close()
	if resp, err := hc.Get(other.URL); err != nil {
		t.Fatalf("unrelated host blocked: %v", err)
	} else {
		resp.Body.Close()
	}

	ps.Unblock(host)
	if resp, err := hc.Get(ts.URL); err != nil {
		t.Fatalf("healed request failed: %v", err)
	} else {
		resp.Body.Close()
	}

	ps.Block(host, "other:1")
	ps.Clear()
	if ps.Blocked(host) || ps.Blocked("other:1") {
		t.Fatal("Clear left hosts blocked")
	}

	// A response already open when its host is blocked fails at its
	// next read, as a long-lived stream must.
	release := make(chan struct{})
	stream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("a"))
		w.(http.Flusher).Flush()
		<-release
		w.Write([]byte("b"))
	}))
	defer stream.Close()
	resp, err := hc.Get(stream.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b [1]byte
	if _, err := resp.Body.Read(b[:]); err != nil || b[0] != 'a' {
		t.Fatalf("open stream before the partition: %q, %v", b, err)
	}
	ps.Block(stream.Listener.Addr().String())
	close(release)
	if _, err := io.ReadFull(resp.Body, b[:]); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("read of an open stream after Block: %v, want ErrPartitioned", err)
	}
}

func TestFlipBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	orig := []byte("hello, integrity")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	got, _ := os.ReadFile(path)
	if got[0] != orig[0]^(1<<3) {
		t.Errorf("byte 0 = %#x, want %#x", got[0], orig[0]^(1<<3))
	}
	// Flipping the same bit again restores the original.
	if err := FlipBit(path, 3); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != string(orig) {
		t.Errorf("double flip did not restore: %q", got)
	}
	// Out-of-range bits wrap instead of erroring.
	if err := FlipBit(path, uint64(len(orig))*8+3); err != nil {
		t.Fatalf("wrapping FlipBit: %v", err)
	}
	got, _ = os.ReadFile(path)
	if got[0] != orig[0]^(1<<3) {
		t.Errorf("wrapped flip hit wrong bit: byte 0 = %#x", got[0])
	}

	// Empty files are a no-op, missing files an error.
	empty := filepath.Join(dir, "empty")
	os.WriteFile(empty, nil, 0o644)
	if err := FlipBit(empty, 0); err != nil {
		t.Errorf("FlipBit on empty file: %v", err)
	}
	if err := FlipBit(filepath.Join(dir, "missing"), 0); err == nil {
		t.Error("FlipBit on missing file: want error")
	}
}

func TestPauseResumeProcess(t *testing.T) {
	// Pausing and resuming our own process group member is too
	// disruptive; exercise the error path (no such pid) and the happy
	// path against this test's own pid with SIGCONT only (harmless —
	// the process is not stopped).
	if err := ResumeProcess(os.Getpid()); err != nil {
		t.Errorf("ResumeProcess(self): %v", err)
	}
	if err := PauseProcess(-999999); err == nil {
		t.Error("PauseProcess(bogus pid): want error")
	}
	if err := ResumeProcess(-999999); err == nil {
		t.Error("ResumeProcess(bogus pid): want error")
	}
}
