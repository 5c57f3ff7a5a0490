package main

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestStalledClientDisconnected holds regvd to its header timeout: a
// client that opens a connection and never finishes its request line
// is disconnected once readHeaderTimeout passes, instead of holding a
// goroutine and a file descriptor for as long as it likes.
func TestStalledClientDisconnected(t *testing.T) {
	d, err := newDaemon(config{addr: "127.0.0.1:0", workers: 1, drain: time.Second})
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
