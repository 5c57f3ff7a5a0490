package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// Both binary streams of the cluster, the shipper's journal stream to
// its standby and the router's forward stream to a shard, are one
// long-lived full-duplex HTTP/1.1 POST: the sender writes messages into
// the request body while one goroutine reads the answers from the
// response body. duplex is the sending half both are built on, and
// inboundStream the serving half.

// duplex is one outbound stream: the request body its owner writes
// messages into and the response body its reader takes answers from.
type duplex struct {
	ctx    context.Context
	cancel context.CancelCauseFunc // aborts the request: its dial, body and answer reads
	pw     *io.PipeWriter
	timer  *time.Timer   // aborts the stream when a message outlasts its bound
	done   chan struct{} // closed when the reader stops: the stream is over
	err    error         // why the reader stopped; read after done
}

// dial opens a stream to url through hc; read consumes its answers
// until it fails. Its owner embeds the duplex, so read may use it. The
// timer starts at once, so the first message's bound covers the dial
// too: the request is answered while its body is still being written.
// On a timeout the stream is aborted with timedOut.
func (d *duplex) dial(hc *http.Client, url string, bound time.Duration, timedOut error, read func(io.Reader) error) error {
	ctx, cancel := context.WithCancelCause(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		cancel(err)
		return err
	}
	req.Header.Set("Content-Type", shipType)
	d.ctx, d.cancel, d.pw, d.done = ctx, cancel, pw, make(chan struct{})
	d.timer = time.AfterFunc(bound, func() { d.abort(timedOut) })
	go d.run(hc, req, read)
	return nil
}

// run makes the request and hands the response body to read. When the
// stream ends, a message write still blocked on it fails.
func (d *duplex) run(hc *http.Client, req *http.Request, read func(io.Reader) error) {
	defer close(d.done)
	d.err = d.serve(hc, req, read)
	d.pw.CloseWithError(d.err)
}

func (d *duplex) serve(hc *http.Client, req *http.Request, read func(io.Reader) error) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A refusal of the stream itself is a short JSON error.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return read(resp.Body)
}

// send writes one message. A failed write waits for the reader to stop
// and says why the stream ended.
func (d *duplex) send(msg []byte) error {
	if _, err := d.pw.Write(msg); err != nil {
		<-d.done
		return d.failure()
	}
	return nil
}

// abort ends the stream with cause: the request is cancelled, which
// stops the reader, and a blocked message write fails.
func (d *duplex) abort(cause error) {
	d.cancel(cause)
	d.pw.CloseWithError(cause)
}

// over reports whether the stream has ended.
func (d *duplex) over() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// failure says why an ended stream ended: the cause it was aborted
// with, or else what its reader met.
func (d *duplex) failure() error {
	if cause := context.Cause(d.ctx); cause != nil {
		return cause
	}
	return d.err
}

// inboundStream is one stream being served. Each message re-arms its
// read deadline; end sets the deadline to now, failing the read in
// progress, and keeps it from being re-armed.
type inboundStream struct {
	rc    *http.ResponseController
	stop  func() bool // unhooks end from the server's stream shutdown
	mu    sync.Mutex
	ended bool
}

// serveStream answers a stream's request with 200 and the binary
// content type, the stream ending when s.streams is cancelled; it
// returns the stream, or nil when the answer could not be sent. Its
// answers go out while later messages are still arriving. A writer that
// cannot (a test recorder) has the whole body already. Call close on
// the stream as the handler returns.
func (s *ShardServer) serveStream(w http.ResponseWriter) *inboundStream {
	in := &inboundStream{rc: http.NewResponseController(w)}
	_ = in.rc.EnableFullDuplex()
	in.stop = context.AfterFunc(s.streams, in.end)
	w.Header().Set("Content-Type", shipType)
	w.WriteHeader(http.StatusOK)
	if in.rc.Flush() != nil {
		in.close()
		return nil
	}
	return in
}

// arm sets the deadline for the next message, d from now or none when
// d is 0, and reports whether the stream goes on. A writer without
// deadline support (a test recorder) reads without one.
func (in *inboundStream) arm(d time.Duration) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.ended {
		var deadline time.Time
		if d > 0 {
			deadline = time.Now().Add(d)
		}
		_ = in.rc.SetReadDeadline(deadline)
	}
	return !in.ended
}

func (in *inboundStream) end() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.ended {
		in.ended = true
		_ = in.rc.SetReadDeadline(time.Now())
	}
}

// close runs as the handler returns: after it, end touches nothing, so
// a connection the server goes on to reuse keeps its own deadlines.
func (in *inboundStream) close() {
	in.stop()
	in.mu.Lock()
	in.ended = true
	in.mu.Unlock()
}

// shipReadChunk is the most a message's buffer holds before its bytes
// arrive: a length claimed but never sent costs this much, not up to
// the stream's message bound.
const shipReadChunk = 64 << 10

// readMessage reads a message's n bytes into a buffer that starts at
// shipReadChunk at most and grows as they arrive.
func readMessage(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, shipReadChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*len(buf))-len(buf))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
