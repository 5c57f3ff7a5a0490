package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/obs"
)

// The router reaches a shard's POST /v1/jobs over one long-lived
// forward stream per shard (wire.go has the frames) instead of one
// HTTP exchange per submit. The shard serves each request frame on its
// own goroutine through the same handler chain as POST /v1/jobs, so the
// two entry points answer byte for byte alike.

// forwardPath is the forward stream's endpoint.
const forwardPath = "/v1/cluster/forward"

var (
	// errUnread fails a request the shard ended its stream without
	// reading; it is sent again on a new stream.
	errUnread = errors.New("cluster: the shard ended the forward stream before reading the request")
	// errForwardTimeout is the cause of a stream aborted because a frame
	// write (or, for the first one, the dial) outlasted its bound.
	errForwardTimeout = errors.New("cluster: forward timed out")
	// errRouterClosed fails a forward after Router.Close.
	errRouterClosed = errors.New("cluster: router closed")
)

// forwarder is the router's end of one backend's forward stream. It
// dials the stream on first use and again once the shard has ended it
// or it broke; a stream the shard ended still delivers the answers to
// the requests it read.
type forwarder struct {
	url string
	hc  *http.Client

	mu     sync.Mutex
	stream *fwdStream
	closed bool
}

func newForwarder(base string, hc *http.Client) *forwarder {
	return &forwarder{url: base + forwardPath, hc: hc}
}

// roundTrip forwards one submit, the caller's body with its tenant and
// async flag, and returns the shard's answer: status, Retry-After value
// and body. An error means no answer came. A request the shard never
// read is sent once more on a new stream.
func (f *forwarder) roundTrip(ctx context.Context, async bool, tenant string, body []byte) (int, string, []byte, error) {
	for resent := false; ; resent = true {
		st, err := f.open()
		if err != nil {
			return 0, "", nil, err
		}
		a, err := st.roundTrip(ctx, async, tenant, body)
		if errors.Is(err, errUnread) && !resent {
			continue
		}
		return a.status, a.retryAfter, a.body, err
	}
}

// open returns the stream to send on, dialing one when there is none
// the shard still reads.
func (f *forwarder) open() (*fwdStream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errRouterClosed
	}
	if st := f.stream; st != nil && st.open() {
		return st, nil
	}
	st := &fwdStream{slots: make(chan struct{}, maxInFlight), calls: map[uint64]chan fwdAnswer{}}
	if err := st.dial(f.hc, f.url, shipTimeout, errForwardTimeout, st.read); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", forwardPath, err)
	}
	f.stream = st
	return st, nil
}

// close aborts the current stream; its waiting requests fail.
func (f *forwarder) close() {
	f.mu.Lock()
	f.closed = true
	st := f.stream
	f.stream = nil
	f.mu.Unlock()
	if st != nil {
		st.abort(errRouterClosed)
	}
}

// fwdStream is one open forward stream. Request IDs are assigned in
// the order the frames are written, so the ID an end frame carries
// splits the requests the shard read from those it did not.
type fwdStream struct {
	duplex
	slots chan struct{} // one per request sent and not yet answered

	wmu  sync.Mutex // serializes frame writes and assigns IDs
	wbuf []byte     // the last frame's buffer, kept while small

	mu     sync.Mutex
	calls  map[uint64]chan fwdAnswer // requests sent and not yet answered
	lastID uint64
	ended  bool // the shard reads no more requests
}

// fwdAnswer is a shard's answer to one request, or why none came.
type fwdAnswer struct {
	status     int
	retryAfter string
	body       []byte
	err        error
}

// fwdSpareMax is the largest frame buffer a stream keeps for its next
// frame.
const fwdSpareMax = 64 << 10

// open reports whether requests may still be sent on the stream.
func (st *fwdStream) open() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.ended && !st.over()
}

// roundTrip sends one request within a slot and waits for its answer.
// A caller that goes away sends a cancel frame: the shard cancels the
// job unless another caller waits on it, and its answer frees the slot.
func (st *fwdStream) roundTrip(ctx context.Context, async bool, tenant string, body []byte) (fwdAnswer, error) {
	select {
	case st.slots <- struct{}{}:
	case <-ctx.Done():
		return fwdAnswer{}, ctx.Err()
	case <-st.done:
		return fwdAnswer{}, st.failure()
	}
	answer := make(chan fwdAnswer, 1)
	id, err := st.sendRequest(ctx, answer, async, tenant, body)
	if err != nil {
		return fwdAnswer{}, err
	}
	select {
	case a := <-answer:
		return a, a.err
	case <-st.done:
		select {
		case a := <-answer: // answered just before the stream ended
			return a, a.err
		default:
			return fwdAnswer{}, st.failure()
		}
	case <-ctx.Done():
		st.sendCancel(id)
		return fwdAnswer{}, ctx.Err()
	}
}

// sendRequest assigns the request its ID, files answer under it and
// writes its frame.
func (st *fwdStream) sendRequest(ctx context.Context, answer chan fwdAnswer, async bool, tenant string, body []byte) (uint64, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.mu.Lock()
	if st.ended {
		st.mu.Unlock()
		<-st.slots
		return 0, errUnread
	}
	st.lastID++
	id := st.lastID
	st.calls[id] = answer
	st.mu.Unlock()

	b := append(st.wbuf[:0], make([]byte, fwdHeaderSize)...)
	b = appendField(b, tenant)
	trace := len(b)
	b = obs.AppendHeaderValue(append(b, 0), ctx)
	if n := len(b) - trace - 1; n <= 255 {
		b[trace] = byte(n)
	} else {
		b = b[:trace+1] // not a header any shard would take; send none
	}
	b = append(b, body...)
	h := fwdHeader{size: uint32(len(b) - fwdHeaderSize), id: id, kind: fwdRequest}
	if async {
		h.flags = fwdAsync
	}
	putFwdHeader(b, h)
	return id, st.write(b)
}

// sendCancel writes request id's cancel frame.
func (st *fwdStream) sendCancel(id uint64) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	b := append(st.wbuf[:0], make([]byte, fwdHeaderSize)...)
	putFwdHeader(b, fwdHeader{id: id, kind: fwdCancel})
	st.write(b)
}

// write sends one frame within shipTimeout, under wmu, and keeps its
// buffer for the next one while it is small.
func (st *fwdStream) write(b []byte) error {
	st.timer.Reset(shipTimeout)
	err := st.send(b)
	st.timer.Stop()
	if cap(b) <= fwdSpareMax {
		st.wbuf = b
	}
	return err
}

// read delivers the shard's answers until the stream ends. A frame the
// router does not expect, or one past maxForwardResponse, ends it.
func (st *fwdStream) read(body io.Reader) error {
	var hdr [fwdHeaderSize]byte
	for {
		if _, err := io.ReadFull(body, hdr[:]); err != nil {
			return fmt.Errorf("stream ended: %w", err)
		}
		h := parseFwdHeader(hdr[:])
		switch {
		case h.kind == fwdResponse && h.size <= maxForwardResponse:
			p, err := readMessage(body, int(h.size))
			if err != nil {
				return fmt.Errorf("stream ended: %w", err)
			}
			status, retryAfter, b, ok := parseFwdResponse(p)
			if !ok {
				return fmt.Errorf("malformed response frame for request %d", h.id)
			}
			st.answer(h.id, fwdAnswer{status: status, retryAfter: string(retryAfter), body: b})
		case h.kind == fwdEnd && h.size == 0:
			st.endAt(h.id)
		default:
			return fmt.Errorf("unexpected frame: kind %d, %d bytes", h.kind, h.size)
		}
	}
}

// answer hands request id its answer and frees its slot.
func (st *fwdStream) answer(id uint64, a fwdAnswer) {
	st.mu.Lock()
	ch, ok := st.calls[id]
	delete(st.calls, id)
	st.mu.Unlock()
	if ok {
		ch <- a
		<-st.slots
	}
}

// endAt records the shard's end frame: nothing more is sent here, and
// the requests after the last one it read fail with errUnread.
func (st *fwdStream) endAt(last uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ended = true
	for id, ch := range st.calls {
		if id > last {
			delete(st.calls, id)
			ch <- fwdAnswer{err: errUnread}
			<-st.slots
		}
	}
}

// handleForward serves one router's forward stream. It reads frames in
// turn; a stream with no request in flight ends when no frame comes
// within msgTimeout (fwdServer.arm). Each request is served on its own
// goroutine through submit, the POST /v1/jobs handler chain, and
// answered with one response frame as it finishes; a request past
// maxInFlight open ones is answered 429 at once, a malformed one 400.
// A cancel frame cancels its request's context. When the stream ends
// (idle, the server's EndStreams, a frame cut short, a frame past
// maxForwardRequest, which is answered 413 first, or one a router does
// not send) the shard writes an end frame naming the last request it
// read and answers every request still open before it returns. If the
// router itself is gone, those requests are cancelled as its callers'
// would have been.
func (s *ShardServer) handleForward(w http.ResponseWriter, r *http.Request, submit http.Handler) {
	in := s.serveStream(w)
	if in == nil {
		return
	}
	defer in.close()
	// The requests outlive a read that fails: the server cancels the
	// stream's own context then, even when the read was ended on purpose.
	fs := &fwdServer{w: w, in: in, idle: s.msgTimeout, submit: submit, ctx: context.WithoutCancel(r.Context()),
		max: s.maxInFlight, calls: map[uint64]*fwdJob{}}
	var (
		hdr  [fwdHeaderSize]byte
		last uint64
		err  error
	)
	for fs.arm() {
		if _, err = io.ReadFull(r.Body, hdr[:]); err != nil {
			break
		}
		h := parseFwdHeader(hdr[:])
		if h.kind == fwdCancel && h.size == 0 {
			fs.cancel(h.id)
			continue
		}
		if h.kind != fwdRequest {
			s.log.Warn("forward stream out of step", "shard", s.name, "kind", h.kind, "bytes", h.size)
			break
		}
		if h.size > maxForwardRequest {
			s.log.Warn("forward request refused", "shard", s.name, "bytes", h.size, "limit", maxForwardRequest)
			fs.refuse(h.id, http.StatusRequestEntityTooLarge, "forward request of %d bytes exceeds %d", h.size, maxForwardRequest)
			last = h.id
			break
		}
		var p []byte
		if p, err = readMessage(r.Body, int(h.size)); err != nil {
			break
		}
		last = h.id
		fs.start(h, p)
	}
	if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		fs.cancelAll() // the connection broke: no one waits for these answers
	}
	fs.finish(last)
}

// fwdServer is the shard's side of one forward stream.
type fwdServer struct {
	w      http.ResponseWriter
	in     *inboundStream
	idle   time.Duration // how long a stream with no request in flight waits for a frame
	submit http.Handler
	ctx    context.Context
	max    int
	wg     sync.WaitGroup

	wmu    sync.Mutex // serializes frame writes
	hdr    [fwdHeaderSize + 3 + 255]byte
	broken bool // a write failed: the router is gone

	mu    sync.Mutex
	calls map[uint64]*fwdJob // requests being served, by ID, for cancel frames
	open  int                // requests being served, counted until answered
}

// arm sets the read deadline for the stream's next frame and reports
// whether the stream goes on. While a request is in flight there is
// none, so the cancel frame of a caller who went away is read however
// long its job runs: a chunked request body is dead after a read
// deadline passes, so the stream could not read on past one. With
// none in flight, the frame must come within idle of the frame before
// or of the last answer (serve re-arms the stream as it writes that).
func (fs *fwdServer) arm() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.armLocked()
}

func (fs *fwdServer) armLocked() bool {
	if fs.open > 0 {
		return fs.in.arm(0)
	}
	return fs.in.arm(fs.idle)
}

// fwdJob is one request being served.
type fwdJob struct{ cancel context.CancelFunc }

// start serves one request frame, or refuses it.
func (fs *fwdServer) start(h fwdHeader, p []byte) {
	tenant, trace, body, ok := parseFwdRequest(p)
	if !ok {
		fs.refuse(h.id, http.StatusBadRequest, "malformed forward request frame")
		return
	}
	fs.mu.Lock()
	if fs.open >= fs.max {
		fs.mu.Unlock()
		fs.refuse(h.id, http.StatusTooManyRequests, "forward stream has %d requests in flight", fs.max)
		return
	}
	ctx, cancel := context.WithCancel(fs.ctx)
	job := &fwdJob{cancel: cancel}
	fs.calls[h.id] = job // a reused ID names the latest request only
	fs.open++
	fs.mu.Unlock()
	fs.wg.Add(1)
	go fs.serve(ctx, job, h.id, h.flags&fwdAsync != 0, tenant, trace, body)
}

// serve runs one request through the POST /v1/jobs chain and answers
// it. It stays counted against the in-flight bound until the answer
// is written.
func (fs *fwdServer) serve(ctx context.Context, job *fwdJob, id uint64, async bool, tenant, trace, body []byte) {
	defer fs.wg.Done()
	var rw frameWriter
	fs.submit.ServeHTTP(&rw, forwardedRequest(ctx, async, tenant, trace, body))
	job.cancel()
	fs.write(id, rw.status, rw.header.Get("Retry-After"), rw.body)
	fs.mu.Lock()
	if fs.calls[id] == job {
		delete(fs.calls, id)
	}
	if fs.open--; fs.open == 0 {
		fs.armLocked()
	}
	fs.mu.Unlock()
}

// cancel cancels request id's context, if it is being served.
func (fs *fwdServer) cancel(id uint64) {
	fs.mu.Lock()
	job := fs.calls[id]
	fs.mu.Unlock()
	if job != nil {
		job.cancel()
	}
}

// cancelAll cancels every request being served.
func (fs *fwdServer) cancelAll() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, job := range fs.calls {
		job.cancel()
	}
}

// refuse answers request id with an error of the stream's own, encoded
// as the job API encodes its refusals. A 429 is an overload, retried
// after a second.
func (fs *fwdServer) refuse(id uint64, status int, format string, args ...any) {
	e := &jobs.APIError{Message: fmt.Sprintf(format, args...), Status: status}
	retryAfter := ""
	if status == http.StatusTooManyRequests {
		e.Kind, retryAfter = "overloaded", "1"
	}
	var rw frameWriter
	jobs.WriteJSON(&rw, status, e)
	fs.write(id, status, retryAfter, rw.body)
}

// write sends one response frame. Once a write fails, the router is
// gone and nothing more is written.
func (fs *fwdServer) write(id uint64, status int, retryAfter string, body []byte) {
	retryAfter = retryAfter[:min(len(retryAfter), 255)]
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.broken {
		return
	}
	b := fs.hdr[:fwdHeaderSize+2]
	putFwdHeader(b, fwdHeader{size: uint32(3 + len(retryAfter) + len(body)), id: id, kind: fwdResponse})
	binary.LittleEndian.PutUint16(b[fwdHeaderSize:], uint16(status))
	b = appendField(b, retryAfter)
	_, err := fs.w.Write(b)
	if err == nil {
		_, err = fs.w.Write(body)
	}
	if err == nil {
		err = fs.in.rc.Flush()
	}
	fs.broken = err != nil
}

// finish ends the stream: the end frame, then the answers to every
// request still being served.
func (fs *fwdServer) finish(last uint64) {
	fs.wmu.Lock()
	if !fs.broken {
		b := fs.hdr[:fwdHeaderSize]
		putFwdHeader(b, fwdHeader{id: last, kind: fwdEnd})
		_, err := fs.w.Write(b)
		if err == nil {
			err = fs.in.rc.Flush()
		}
		fs.broken = err != nil
	}
	fs.wmu.Unlock()
	fs.wg.Wait()
}

// frameWriter is the http.ResponseWriter a forwarded request is served
// with: it keeps what the handler answers for the response frame.
type frameWriter struct {
	header http.Header
	status int
	body   []byte
}

// SetReadDeadline takes ReadBody's deadlines and ignores them: the
// request's bytes are already in memory, so there is no read to bound.
// A writer without the method would answer each with a freshly built
// not-supported error.
func (*frameWriter) SetReadDeadline(time.Time) error { return nil }

func (w *frameWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *frameWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *frameWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// forwardedRequest is the POST /v1/jobs request a request frame stands
// for: its body, its tenant and trace headers, and ?async=1 when the
// frame is flagged async.
func forwardedRequest(ctx context.Context, async bool, tenant, trace, body []byte) *http.Request {
	target := "/v1/jobs"
	if async {
		target = "/v1/jobs?async=1"
	}
	fb := &frameBody{}
	fb.Reset(body)
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, target, fb)
	if err != nil {
		panic(err) // a constant target always parses
	}
	r.ContentLength = int64(len(body))
	if len(tenant) > 0 {
		r.Header[jobs.TenantHeader] = []string{string(tenant)}
	}
	if len(trace) > 0 {
		r.Header[obs.TraceHeader] = []string{string(trace)}
	}
	return r
}

// frameBody is a request body over bytes already read.
type frameBody struct{ bytes.Reader }

func (*frameBody) Close() error { return nil }
