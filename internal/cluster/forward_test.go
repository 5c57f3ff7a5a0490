package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/obs"
)

// requestFrame is a forward request frame as a router writes it.
func requestFrame(id uint64, flags byte, tenant, trace string, body []byte) []byte {
	b := make([]byte, fwdHeaderSize)
	b = appendField(appendField(b, tenant), trace)
	b = append(b, body...)
	putFwdHeader(b, fwdHeader{size: uint32(len(b) - fwdHeaderSize), id: id, kind: fwdRequest, flags: flags})
	return b
}

// fwdFrame is one decoded response or end frame.
type fwdFrame struct {
	fwdHeader
	status     int
	retryAfter string
	body       string
}

// decodeFrames splits a forward stream's response body into frames.
func decodeFrames(t *testing.T, b []byte) []fwdFrame {
	t.Helper()
	var out []fwdFrame
	for len(b) > 0 {
		if len(b) < fwdHeaderSize {
			t.Fatalf("%d bytes of a frame header left over", len(b))
		}
		f := fwdFrame{fwdHeader: parseFwdHeader(b)}
		if uint64(len(b)-fwdHeaderSize) < uint64(f.size) {
			t.Fatalf("frame for request %d cut short", f.id)
		}
		p := b[fwdHeaderSize : fwdHeaderSize+int(f.size)]
		b = b[fwdHeaderSize+int(f.size):]
		switch f.kind {
		case fwdResponse:
			status, retryAfter, body, ok := parseFwdResponse(p)
			if !ok {
				t.Fatalf("malformed response frame for request %d", f.id)
			}
			f.status, f.retryAfter, f.body = status, string(retryAfter), string(body)
		case fwdEnd:
			if f.size != 0 {
				t.Fatalf("end frame with %d payload bytes", f.size)
			}
		default:
			t.Fatalf("a shard wrote a frame of kind %d", f.kind)
		}
		out = append(out, f)
	}
	return out
}

// echoJobs stands in for the job API: it answers from the request
// alone (method, target, tenant and trace headers, length and body),
// so a forwarded request and a direct one get the same bytes.
func echoJobs(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	if len(body) > 0 && body[0] == 'R' {
		w.Header().Set("Retry-After", string(body[1:min(len(body), 8)]))
	}
	w.WriteHeader([]int{200, 202, 400, 429, 503}[len(body)%5])
	fmt.Fprintf(w, "%s %s tenant=%q trace=%q length=%d\n", r.Method, r.URL, r.Header.Get(jobs.TenantHeader),
		r.Header.Get(obs.TraceHeader), r.ContentLength)
	w.Write(body)
}

// FuzzForwardStream feeds arbitrary bytes to a shard's forward handler
// as one stream. The handler never panics. It answers every request
// frame it reads exactly once, with what a direct POST /v1/jobs call of
// the same handler chain answers (400 for a payload that does not
// split, 413 for a length past maxForwardRequest, which ends the
// stream), answers nothing of a frame cut short, and writes one end
// frame naming the last request it read.
func FuzzForwardStream(f *testing.F) {
	req := requestFrame(1, 0, "gold", "0123456789abcdef0123456789abcdef/0123456789abcdef", []byte(`{"workload":"VectorAdd"}`))
	async := requestFrame(2, fwdAsync, "", "", []byte("R12 and more"))
	oversized := requestFrame(3, 0, "", "", nil)
	binary.LittleEndian.PutUint32(oversized, maxForwardRequest+1)
	cancel := make([]byte, fwdHeaderSize)
	putFwdHeader(cancel, fwdHeader{id: 1, kind: fwdCancel})
	malformed := make([]byte, fwdHeaderSize+1)
	putFwdHeader(malformed, fwdHeader{size: 1, id: 4, kind: fwdRequest})
	malformed[fwdHeaderSize] = 9 // a tenant field longer than the payload
	f.Add(req)
	f.Add(append(bytes.Clone(req), async...))
	f.Add(req[:len(req)-3]) // a frame cut short
	f.Add(append(append(bytes.Clone(req), cancel...), async...))
	f.Add(append(bytes.Clone(async), oversized...))
	f.Add(append(bytes.Clone(malformed), req...))
	f.Add(append(bytes.Clone(req), req...)) // a reused ID
	f.Add(append(bytes.Clone(req), 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0))

	f.Fuzz(func(t *testing.T, stream []byte) {
		ss := NewShardServer("s", nil, nil, nil, nil)
		ss.maxInFlight = len(stream) // no refusal for the bound: it is timing-dependent
		h := ss.Handler(http.HandlerFunc(echoJobs))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, forwardPath, bytes.NewReader(stream)))
		if rec.Code != http.StatusOK {
			t.Fatalf("forward stream answered HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}

		var (
			want []fwdFrame
			last uint64
		)
		for rest := stream; len(rest) >= fwdHeaderSize; {
			fh := parseFwdHeader(rest)
			if fh.kind == fwdCancel && fh.size == 0 {
				rest = rest[fwdHeaderSize:]
				continue
			}
			if fh.kind != fwdRequest {
				break
			}
			if fh.size > maxForwardRequest {
				want = append(want, directError(fh.id, http.StatusRequestEntityTooLarge,
					"forward request of %d bytes exceeds %d", fh.size, maxForwardRequest))
				last = fh.id
				break
			}
			if uint64(len(rest)-fwdHeaderSize) < uint64(fh.size) {
				break
			}
			p := rest[fwdHeaderSize : fwdHeaderSize+int(fh.size)]
			rest = rest[fwdHeaderSize+int(fh.size):]
			last = fh.id
			tenant, trace, body, ok := parseFwdRequest(p)
			if !ok {
				want = append(want, directError(fh.id, http.StatusBadRequest, "malformed forward request frame"))
				continue
			}
			target := "/v1/jobs"
			if fh.flags&fwdAsync != 0 {
				target += "?async=1"
			}
			direct := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			if len(tenant) > 0 {
				direct.Header.Set(jobs.TenantHeader, string(tenant))
			}
			if len(trace) > 0 {
				direct.Header.Set(obs.TraceHeader, string(trace))
			}
			drec := httptest.NewRecorder()
			h.ServeHTTP(drec, direct)
			want = append(want, fwdFrame{fwdHeader: fwdHeader{id: fh.id, kind: fwdResponse}, status: drec.Code,
				retryAfter: drec.Header().Get("Retry-After"), body: drec.Body.String()})
		}

		var got []fwdFrame
		ends := 0
		for _, fr := range decodeFrames(t, rec.Body.Bytes()) {
			if fr.kind == fwdEnd {
				ends++
				if fr.id != last {
					t.Fatalf("end frame names request %d, want %d", fr.id, last)
				}
				continue
			}
			fr.size = 0
			got = append(got, fr)
		}
		if ends != 1 {
			t.Fatalf("%d end frames, want 1", ends)
		}
		if !sameFrames(got, want) {
			t.Fatalf("answers %+v, want %+v", got, want)
		}
	})
}

// directError is the response frame of a refusal the stream makes
// itself, encoded as the job API encodes its errors.
func directError(id uint64, status int, format string, args ...any) fwdFrame {
	rec := httptest.NewRecorder()
	jobs.WriteError(rec, status, format, args...)
	return fwdFrame{fwdHeader: fwdHeader{id: id, kind: fwdResponse}, status: status, body: rec.Body.String()}
}

// sameFrames compares two lists of answers as multisets: a shard
// answers requests in whatever order they finish.
func sameFrames(a, b []fwdFrame) bool {
	if len(a) != len(b) {
		return false
	}
	left := map[fwdFrame]int{}
	for _, f := range a {
		left[f]++
	}
	for _, f := range b {
		if left[f] == 0 {
			return false
		}
		left[f]--
	}
	return true
}

// rawStream is a forward stream a test drives frame by frame, as a
// router would.
type rawStream struct {
	pw   *io.PipeWriter
	body io.ReadCloser
}

func openRawStream(t *testing.T, url string) *rawStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+forwardPath, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", shipType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forward stream: HTTP %d", resp.StatusCode)
	}
	s := &rawStream{pw: pw, body: resp.Body}
	t.Cleanup(func() {
		pw.Close()
		resp.Body.Close()
	})
	return s
}

func (s *rawStream) send(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := s.pw.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// next reads one frame, failing the test past the deadline.
func (s *rawStream) next(t *testing.T) fwdFrame {
	t.Helper()
	type read struct {
		f   fwdFrame
		err error
	}
	ch := make(chan read, 1)
	go func() {
		var hdr [fwdHeaderSize]byte
		if _, err := io.ReadFull(s.body, hdr[:]); err != nil {
			ch <- read{err: err}
			return
		}
		h := parseFwdHeader(hdr[:])
		p := make([]byte, h.size)
		if _, err := io.ReadFull(s.body, p); err != nil {
			ch <- read{err: err}
			return
		}
		ch <- read{f: decodeFrames(t, append(hdr[:], p...))[0]}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("reading a frame: %v", r.err)
		}
		return r.f
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
		return fwdFrame{}
	}
}

// heldJobs stands in for the job API with submits that stay in flight
// until release is closed or their caller cancels them.
type heldJobs struct {
	started chan struct{}
	release chan struct{}
}

// newHeldJobs buffers 64 starts, more than any test waits for; a start
// past them is not counted, so a handler never blocks on it.
func newHeldJobs() *heldJobs {
	return &heldJobs{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (h *heldJobs) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case h.started <- struct{}{}:
	default:
	}
	select {
	case <-h.release:
		jobs.WriteRaw(w, http.StatusOK, []byte("{}\n"))
	case <-r.Context().Done():
		jobs.WriteError(w, http.StatusRequestTimeout, "cancelled")
	}
}

// TestForwardStreamBounds: requests past a stream's in-flight bound are
// answered 429 at once and start no goroutine; a cancel frame cancels
// its request; a frame longer than maxForwardRequest is answered 413
// without its payload being read, and ends the stream with an end
// frame naming it.
func TestForwardStreamBounds(t *testing.T) {
	held := newHeldJobs()
	ss := NewShardServer("s", nil, nil, nil, nil)
	ss.maxInFlight = 2
	srv := httptest.NewServer(ss.Handler(held))
	t.Cleanup(srv.Close)
	s := openRawStream(t, srv.URL)

	body := []byte(`{"workload":"VectorAdd"}`)
	s.send(t, requestFrame(1, 0, "", "", body))
	s.send(t, requestFrame(2, 0, "", "", body))
	<-held.started
	<-held.started
	before := runtime.NumGoroutine()
	const extra = 100
	for id := uint64(3); id < 3+extra; id++ {
		s.send(t, requestFrame(id, 0, "", "", body))
	}
	for i := 0; i < extra; i++ {
		f := s.next(t)
		if f.kind != fwdResponse || f.id < 3 || f.status != http.StatusTooManyRequests || f.retryAfter == "" {
			t.Fatalf("a request past the bound: %+v, want 429 with Retry-After", f)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > 10 {
		t.Errorf("%d requests past the bound started %d goroutines", extra, grew)
	}

	cancel := make([]byte, fwdHeaderSize)
	putFwdHeader(cancel, fwdHeader{id: 1, kind: fwdCancel})
	s.send(t, cancel)
	if f := s.next(t); f.id != 1 || f.status != http.StatusRequestTimeout {
		t.Fatalf("after a cancel frame: %+v, want request 1 answered as cancelled", f)
	}

	oversized := make([]byte, fwdHeaderSize)
	putFwdHeader(oversized, fwdHeader{size: maxForwardRequest + 1, id: 200, kind: fwdRequest})
	s.send(t, oversized)
	if f := s.next(t); f.id != 200 || f.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("an oversized frame: %+v, want 413", f)
	}
	if f := s.next(t); f.kind != fwdEnd || f.id != 200 {
		t.Fatalf("after an oversized frame: %+v, want the end frame naming it", f)
	}
	close(held.release)
	if f := s.next(t); f.id != 2 || f.status != http.StatusOK {
		t.Fatalf("a request read before the end: %+v, want it answered", f)
	}
	if _, err := s.body.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the last answer: %v, want the stream to end", err)
	}
}

// TestForwardCancelOutlivesIdleBound: a stream whose request runs past
// the stream's idle bound stays open, so the cancel frame of a caller
// who goes away still reaches the shard; once nothing is in flight the
// stream ends within the bound, counted from the last answer.
func TestForwardCancelOutlivesIdleBound(t *testing.T) {
	held := newHeldJobs()
	ss := NewShardServer("s", nil, nil, nil, nil)
	ss.msgTimeout = 100 * time.Millisecond
	srv := httptest.NewServer(ss.Handler(held))
	t.Cleanup(srv.Close)
	s := openRawStream(t, srv.URL)
	// A shard that stopped reading would wait for the held request
	// forever, and the server's Close with it.
	t.Cleanup(func() { close(held.release) })

	s.send(t, requestFrame(1, 0, "", "", []byte(`{"workload":"VectorAdd"}`)))
	<-held.started
	time.Sleep(4 * ss.msgTimeout) // the request outlives the idle bound
	cancel := make([]byte, fwdHeaderSize)
	putFwdHeader(cancel, fwdHeader{id: 1, kind: fwdCancel})
	s.send(t, cancel)
	if f := s.next(t); f.kind != fwdResponse || f.id != 1 || f.status != http.StatusRequestTimeout {
		t.Fatalf("a cancel sent past the idle bound: %+v, want request 1 answered as cancelled", f)
	}
	answered := time.Now()
	if f := s.next(t); f.kind != fwdEnd || f.id != 1 {
		t.Fatalf("after the last answer: %+v, want the end frame naming request 1", f)
	}
	if idle := time.Since(answered); idle > 20*ss.msgTimeout {
		t.Errorf("the stream ended %v after its last answer, want about %v", idle, ss.msgTimeout)
	}
}

// TestForwardResendsUnreadRequestOnce: a request the shard ended its
// stream without reading (its ID is above the one the end frame names)
// is sent again on a new stream, once; if that one ends unread too,
// the request fails without a third stream.
func TestForwardResendsUnreadRequestOnce(t *testing.T) {
	for _, tc := range []struct {
		unread  int32 // streams that end without reading the request
		wantErr bool
	}{{1, false}, {2, true}} {
		ss := NewShardServer("s", nil, nil, nil, nil)
		jobsAPI := ss.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			jobs.WriteRaw(w, http.StatusOK, []byte("{}\n"))
		}))
		var streams atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if streams.Add(1) > tc.unread {
				jobsAPI.ServeHTTP(w, r)
				return
			}
			in := ss.serveStream(w)
			defer in.close()
			var hdr [fwdHeaderSize]byte
			if _, err := io.ReadFull(r.Body, hdr[:]); err != nil {
				t.Error(err)
				return
			}
			if _, err := io.CopyN(io.Discard, r.Body, int64(parseFwdHeader(hdr[:]).size)); err != nil {
				t.Error(err)
				return
			}
			putFwdHeader(hdr[:], fwdHeader{id: 0, kind: fwdEnd}) // read nothing
			w.Write(hdr[:])
		}))
		f := newForwarder(srv.URL, &http.Client{})
		status, _, _, err := f.roundTrip(context.Background(), false, "", []byte(`{}`))
		if tc.wantErr && !errors.Is(err, errUnread) || !tc.wantErr && (err != nil || status != http.StatusOK) {
			t.Errorf("%d streams ending unread: HTTP %d, %v", tc.unread, status, err)
		}
		if got := streams.Load(); got != 2 {
			t.Errorf("%d streams ending unread: %d streams dialed, want 2", tc.unread, got)
		}
		f.close()
		srv.Close()
	}
}

// TestShutdownEndsForwardStream: a graceful shutdown ends an open
// forward stream at once instead of waiting out its idle bound. The
// request it already read is still answered, and the router's next
// submit dials a new stream.
func TestShutdownEndsForwardStream(t *testing.T) {
	held := newHeldJobs()
	ss := NewShardServer("s", nil, nil, nil, nil)
	hs := httptest.NewUnstartedServer(ss.Handler(held))
	hs.Config.RegisterOnShutdown(ss.EndStreams)
	hs.Start()
	t.Cleanup(hs.Close)

	f := newForwarder(hs.URL, &http.Client{})
	t.Cleanup(f.close)
	type answer struct {
		status int
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		status, _, _, err := f.roundTrip(context.Background(), false, "", []byte(`{}`))
		answered <- answer{status, err}
	}()
	<-held.started
	first := f.stream

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	start := time.Now()
	go func() { shut <- hs.Config.Shutdown(ctx) }()
	waitFor(t, "the stream to end", 5*time.Second, func() bool { return !first.open() })
	close(held.release)
	if a := <-answered; a.err != nil || a.status != http.StatusOK {
		t.Fatalf("the request in flight at shutdown: HTTP %d, %v; want 200", a.status, a.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Shutdown took %v with a forward stream open, want well under its idle bound", took)
	}
}

// TestForwardCancelReachesShard: a caller that goes away while its
// sync submit simulates cancels the job on the shard through a cancel
// frame; the stream stays open for the next submit.
func TestForwardCancelReachesShard(t *testing.T) {
	a := newTestShard(t, "a")
	a.serve("", "")
	r, routerURL := startRouter(t, []ShardInfo{{Name: "a", URL: a.url}})

	// The job's own timeout only bounds the test when a cancel never
	// reaches the shard: it runs far past the test's 10 s wait.
	long := jobs.Job{Kernel: spinKernel, GridCTAs: 64, ThreadsPerCTA: 64, ConcCTAs: 2, TimeoutMS: 30_000}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.New(routerURL, client.WithPolicy(client.RetryPolicy{MaxAttempts: 1})).Submit(ctx, long)
		done <- err
	}()
	waitFor(t, "the shard simulating the job", 30*time.Second, func() bool { return a.pool.Metrics().Running > 0 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("a cancelled submit returned a result")
	}
	waitFor(t, "the shard to cancel the job", 10*time.Second, func() bool {
		m := a.pool.Metrics()
		return m.Running == 0 && m.Failed == 1
	})
	if m := a.pool.Metrics(); m.Completed != 0 {
		t.Fatalf("the cancelled job completed: %+v", m)
	}
	stream := r.nodes["a"].fwd.stream
	if _, err := client.New(routerURL).Submit(context.Background(), jobs.Job{Workload: "VectorAdd"}); err != nil {
		t.Fatal(err)
	}
	if r.nodes["a"].fwd.stream != stream {
		t.Error("a cancel ended the forward stream")
	}
}

// TestForwardStreamCutByPartition: a partition of a shard's host cuts
// the router's open forward stream under a sync submit in flight. The
// shard's answer is lost with the stream, the retry cannot redial, and
// the submit fails over exactly once, to the standby that adopts the
// shard's journal, with the result a never-cut run gives.
func TestForwardStreamCutByPartition(t *testing.T) {
	s1 := newTestShard(t, "s1")
	s2 := newTestShard(t, "s2")
	s1.serve("s2", s2.url)
	s2.serve("s1", s1.url)
	shards := map[string]*testShard{"s1": s1, "s2": s2}
	parts := faultinject.NewPartitionSet()
	r, err := newRouter([]ShardInfo{{Name: "s1", URL: s1.url}, {Name: "s2", URL: s2.url}},
		RouterOptions{Transport: parts.Transport(nil)}, 50*time.Millisecond,
		client.RetryPolicy{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rs := httptest.NewServer(r.Handler())
	t.Cleanup(rs.Close)
	waitFor(t, "both shards probed healthy", 10*time.Second, func() bool {
		healthy := 0
		for _, row := range routerStatus(t, rs.URL).Shards {
			if row.Healthy && row.Standby != "" {
				healthy++
			}
		}
		return healthy == 2
	})

	spin := jobs.Job{Kernel: spinKernel, GridCTAs: 8, ThreadsPerCTA: 64, ConcCTAs: 2}
	control, err := jobs.Execute(context.Background(), spin)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing([]string{"s1", "s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := shards[ring.Owner(spin.Key())]

	type answer struct {
		resp *http.Response
		body []byte
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(rs.URL+"/v1/jobs", "application/json", strings.NewReader(
			fmt.Sprintf(`{"kernel":%q,"grid_ctas":8,"threads_per_cta":64,"conc_ctas":2}`, spinKernel)))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- answer{resp, body, err}
	}()
	waitFor(t, "the victim simulating the job", 30*time.Second, func() bool { return victim.pool.Metrics().Running > 0 })
	parts.Block(strings.TrimPrefix(victim.url, "http://"))

	a := <-answered
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.resp.StatusCode != http.StatusOK || !bytes.Equal(a.body, control.JSON()) {
		t.Fatalf("submit across the cut: HTTP %d, %d bytes; want 200 and the control's %d bytes",
			a.resp.StatusCode, len(a.body), len(control.JSON()))
	}
	if got := a.resp.Header.Get(ServedByHeader); got == victim.name {
		t.Errorf("served by %s, the partitioned shard", got)
	}
	if st := routerStatus(t, rs.URL); st.Failovers != 1 {
		t.Errorf("%d failovers, want exactly 1", st.Failovers)
	}
}
