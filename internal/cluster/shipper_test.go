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

	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
)

// shipCounter is a transport that counts the ship streams it opens and
// the ack bytes read back on them: one ack per message.
type shipCounter struct {
	streams  atomic.Int64
	ackBytes atomic.Int64
}

func (c *shipCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != shipPath {
		return resp, err
	}
	c.streams.Add(1)
	resp.Body = &countedBody{ReadCloser: resp.Body, n: &c.ackBytes}
	return resp, nil
}

// messages is how many messages the standby has acked.
func (c *shipCounter) messages() int64 { return c.ackBytes.Load() / shipAckSize }

// countedBody counts the bytes read through it.
type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tinyJob is a distinct, short single-SM job: its kernel stores i, so
// no two values of i share a content address.
func tinyJob(i int) jobs.Job {
	return jobs.Job{
		Kernel: fmt.Sprintf(".kernel tiny\n.reg 2\n    movi r1, %d\n    st.global [r0+0], r1\n    exit\n", i),
		Mode:   "hwonly", GridCTAs: 1, ThreadsPerCTA: 32, ConcCTAs: 1,
	}
}

// shipMessage is one ship message: the header for journal bytes of
// generation gen stamped with epoch, then the bytes.
func shipMessage(epoch, gen uint64, snapshot bool, journal []byte) []byte {
	msg := make([]byte, shipHeaderSize, shipHeaderSize+len(journal))
	putShipHeader(msg, shipHeader{size: uint32(len(journal)), epoch: epoch, gen: gen, snapshot: snapshot})
	return append(msg, journal...)
}

// decodeAcks splits a ship stream's response body into its acks.
func decodeAcks(t *testing.T, body []byte) []shipAck {
	t.Helper()
	if len(body)%shipAckSize != 0 {
		t.Fatalf("ship response of %d bytes is not whole acks", len(body))
	}
	var acks []shipAck
	for ; len(body) > 0; body = body[shipAckSize:] {
		acks = append(acks, parseShipAck(body))
	}
	return acks
}

// openStore opens a fresh primary store, closed at cleanup.
func openStore(t testing.TB) *store.Store {
	t.Helper()
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// wholeJournal is a primary's journal holding one accept, as a resync
// exports it.
func wholeJournal(t testing.TB) []byte {
	t.Helper()
	st := openStore(t)
	j := tinyJob(0)
	if err := st.Accept(j.Key(), j, false); err != nil {
		t.Fatal(err)
	}
	_, journal, err := st.ExportJournal()
	if err != nil {
		t.Fatal(err)
	}
	return journal
}

// newStandby is a standby shard server "sb" over a fresh standby store,
// for tests that serve it their own way.
func newStandby(t *testing.T) (*ShardServer, *store.StandbyStore) {
	t.Helper()
	sb, err := store.OpenStandby(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	return NewShardServer("sb", nil, nil, sb, nil), sb
}

// ackHook is a ResponseWriter that runs before ahead of every ack the
// standby writes on a stream.
type ackHook struct {
	http.ResponseWriter
	before func(w http.ResponseWriter)
}

func (w *ackHook) Write(p []byte) (int, error) {
	w.before(w.ResponseWriter)
	return w.ResponseWriter.Write(p)
}

func (w *ackHook) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serveHooked serves h with before run ahead of every ack.
func serveHooked(t *testing.T, h http.Handler, before func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&ackHook{ResponseWriter: w, before: before}, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// startCountedShipper arms a shipper of st's journal to the standby at
// url whose streams and acks are counted, waits out its initial resync
// and zeroes the message count.
func startCountedShipper(t *testing.T, st *store.Store, url string, flushEvery time.Duration) (*Shipper, *shipCounter) {
	t.Helper()
	counter := &shipCounter{}
	sh := NewShipper("p", "sb", url, st)
	sh.SetTransport(counter)
	sh.flushEvery = flushEvery
	sh.Start()
	t.Cleanup(sh.Close)
	waitFor(t, "initial resync", 10*time.Second, func() bool {
		st := sh.Status()
		return st.Resyncs == 1 && !st.PendingResync
	})
	counter.ackBytes.Store(0)
	return sh, counter
}

// streamOver reports whether the shipper's open stream has ended.
func streamOver(sh *Shipper) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stream != nil && sh.stream.over()
}

// TestShipperDoneRidesAcceptShip pins the shipping discipline of a
// cold job: its accept ships synchronously, carrying the done frame of
// the job before it, and its own done frame waits for the next accept
// or the flusher's tick. N synchronous submits therefore cost N batch
// messages, not one per frame, and all of them ride the one stream the
// initial resync opened.
func TestShipperDoneRidesAcceptShip(t *testing.T) {
	ctx := context.Background()

	t.Run("next accept", func(t *testing.T) {
		sb := newTestShard(t, "sb")
		sb.serve("", "")
		pri := newTestShard(t, "p")
		// A tick that never fires within the test: only accepts ship.
		_, counter := startCountedShipper(t, pri.st, sb.url, time.Hour)
		const n = 12
		for i := 0; i < n; i++ {
			if _, err := pri.pool.Submit(ctx, tinyJob(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := counter.messages(); got != n {
			t.Errorf("%d synchronous submits shipped %d messages, want %d", n, got, n)
		}
		if got := counter.streams.Load(); got != 1 {
			t.Errorf("shipping opened %d streams, want 1", got)
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
		_, counter := startCountedShipper(t, pri.st, sb.url, 20*time.Millisecond)
		if _, err := pri.pool.Submit(ctx, tinyJob(0)); err != nil {
			t.Fatal(err)
		}
		// No accept follows: the done frame reaches the standby on the
		// flusher's tick, in a message of its own.
		waitFor(t, "done frame on the standby", 5*time.Second, func() bool {
			_, last := sb.sb.State(pri.name)
			return last == 2
		})
		if got := counter.messages(); got != 2 {
			t.Errorf("one submit and one tick shipped %d messages, want 2", got)
		}
		if got := counter.streams.Load(); got != 1 {
			t.Errorf("shipping opened %d streams, want 1", got)
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

// TestShipAckBounded: the shipper reads one fixed-size ack per
// message, whatever the standby sends. A standby answering with a long
// body that is not acks (here a JSON ack padded to 1 MiB) fails the
// message after at most two acks' worth of it, so the stream stays
// marked for resync and the shipper buffers nothing more.
func TestShipAckBounded(t *testing.T) {
	pad := strings.Repeat("x", 1<<20)
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).EnableFullDuplex()
		fmt.Fprintf(w, `{"gen":1,"last_seq":0,"applied":0,"pad":%q}`, pad)
	}))
	t.Cleanup(standby.Close)
	counter := &shipCounter{}
	sh := NewShipper("p", "sb", standby.URL, openStore(t))
	sh.SetTransport(counter)
	sh.JournalRewritten(0) // marks the stream for resync, as Start does
	sh.flush()
	if got := sh.Status(); !got.PendingResync || got.Resyncs != 0 {
		t.Fatalf("after a body that is not acks: pending resync %v, resyncs %d; want still pending, none done", got.PendingResync, got.Resyncs)
	}
	if read := counter.ackBytes.Load(); read > 2*shipAckSize {
		t.Errorf("the shipper read %d bytes of a 1 MiB answer, want at most %d", read, 2*shipAckSize)
	}
	sh.send.Lock()
	sh.dropStream()
	sh.send.Unlock()
}

// TestSlowStandbyHoldsOnlyItsAccept: the store only queues frames under
// its lock, and an accept ships after releasing it. Against a standby
// that acks batches after about a second, a Done of one job returns
// while another job's accept waits on its ship, and that accept returns
// only once its message is acked.
func TestSlowStandbyHoldsOnlyItsAccept(t *testing.T) {
	const delay = time.Second
	standby, sbStore := newStandby(t)
	var slow, answered atomic.Bool
	arrived := make(chan struct{}, 1)
	srv := serveHooked(t, standby.Handler(http.NotFoundHandler()), func(http.ResponseWriter) {
		if slow.Load() {
			select {
			case arrived <- struct{}{}:
			default:
			}
			time.Sleep(delay)
			answered.Store(true) // before the ack leaves the handler
		}
	})

	st := openStore(t)
	// A tick that never fires within the test: only accepts ship.
	startCountedShipper(t, st, srv.URL, time.Hour)

	finished, waiting := tinyJob(0), tinyJob(1)
	if err := st.Accept(finished.Key(), finished, false); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	accepted := make(chan error, 1)
	go func() {
		err := st.Accept(waiting.Key(), waiting, false)
		if err == nil && !answered.Load() {
			err = fmt.Errorf("Accept returned before its message was acked")
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
		t.Errorf("Done took %v while another job's accept was shipping to a standby acking after %v", took, delay)
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
// share batch messages, and each still returns only once the standby
// holds its frame, whether its own message or another accept's carried
// it.
func TestConcurrentAcceptsShipTheirFrames(t *testing.T) {
	sb := newTestShard(t, "sb")
	sb.serve("", "")
	pri := newTestShard(t, "p")
	// A tick that never fires within the test: only accepts ship.
	startCountedShipper(t, pri.st, sb.url, time.Hour)
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
				recovered, err := sb.sb.Recover(pri.name, 0)
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

// TestShipStreamRedials: a stream the standby ended between messages,
// because it idled past the standby's bound or because the standby
// dropped its connections as a restart does, is dialed again by the
// next accept, which ships on the new stream without a resync.
func TestShipStreamRedials(t *testing.T) {
	for _, idle := range []bool{true, false} {
		name := "restart"
		if idle {
			name = "idle"
		}
		t.Run(name, func(t *testing.T) {
			standby, sbStore := newStandby(t)
			if idle {
				standby.msgTimeout = 100 * time.Millisecond
			}
			srv := httptest.NewServer(standby.Handler(http.NotFoundHandler()))
			t.Cleanup(srv.Close)
			st := openStore(t)
			sh, counter := startCountedShipper(t, st, srv.URL, time.Hour)
			if !idle {
				srv.CloseClientConnections()
			}
			waitFor(t, "the standby to end the stream", 10*time.Second, func() bool { return streamOver(sh) })

			j := tinyJob(0)
			if err := st.Accept(j.Key(), j, false); err != nil {
				t.Fatal(err)
			}
			got := sh.Status()
			if got.SyncShipFailures != 0 || got.PendingResync || got.Resyncs != 1 {
				t.Errorf("after the re-dial: %d sync ship failures, pending resync %v, %d resyncs; want 0, false, 1",
					got.SyncShipFailures, got.PendingResync, got.Resyncs)
			}
			if n := counter.streams.Load(); n != 2 {
				t.Errorf("shipping opened %d streams, want 2", n)
			}
			if _, last := sbStore.State("p"); last != 1 {
				t.Errorf("standby holds seq %d after the accept, want 1", last)
			}
		})
	}
}

// TestShipStreamBreakMarksResync: a stream that breaks with a batch
// unacknowledged (the standby drops the connection instead of acking)
// fails that accept's ship, which counts in sync_ship_failures and
// leaves a resync pending, as a failed POST did. The resync the next
// accept prompts heals the copy over a new stream.
func TestShipStreamBreakMarksResync(t *testing.T) {
	standby, sbStore := newStandby(t)
	var drop atomic.Bool
	srv := serveHooked(t, standby.Handler(http.NotFoundHandler()), func(w http.ResponseWriter) {
		if drop.Load() {
			// Abort the connection at once: no ack, and no wait to drain
			// the rest of the stream first.
			http.NewResponseController(w).SetReadDeadline(time.Now())
			panic(http.ErrAbortHandler)
		}
	})
	st := openStore(t)
	sh, counter := startCountedShipper(t, st, srv.URL, time.Hour)

	drop.Store(true)
	first := tinyJob(0)
	if err := st.Accept(first.Key(), first, false); err != nil {
		t.Fatal(err)
	}
	if got := sh.Status(); got.SyncShipFailures != 1 || !got.PendingResync {
		t.Fatalf("after a stream broke under its batch: %d sync ship failures, pending resync %v; want 1, true",
			got.SyncShipFailures, got.PendingResync)
	}
	drop.Store(false)
	second := tinyJob(1)
	if err := st.Accept(second.Key(), second, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the resync to heal the copy", 10*time.Second, func() bool {
		got := sh.Status()
		_, last := sbStore.State("p")
		return got.Resyncs == 2 && !got.PendingResync && last == 2
	})
	if n := counter.streams.Load(); n != 2 {
		t.Errorf("shipping opened %d streams, want 2", n)
	}
}

// TestShipStreamCloseBounded: Close gives its final flush the ship
// timeout and no more, even when the standby vanished mid-stream: here
// it takes in messages and never acks them. An accept is waiting on
// its ack when Close starts, and the job's done frame is queued behind
// it; without the cut, Close would wait for that accept and then for
// the final flush's batch on a new stream, each up to the timeout.
func TestShipStreamCloseBounded(t *testing.T) {
	standby, _ := newStandby(t)
	var vanish atomic.Bool
	release := make(chan struct{})
	arrived := make(chan struct{}, 1)
	srv := serveHooked(t, standby.Handler(http.NotFoundHandler()), func(http.ResponseWriter) {
		if vanish.Load() {
			select {
			case arrived <- struct{}{}:
			default:
			}
			<-release
		}
	})
	t.Cleanup(func() { close(release) }) // runs before srv.Close
	st := openStore(t)
	sh := NewShipper("p", "sb", srv.URL, st)
	sh.flushEvery = time.Hour
	sh.timeout = time.Second
	sh.Start()
	t.Cleanup(sh.Close)
	waitFor(t, "initial resync", 10*time.Second, func() bool { return sh.Status().Resyncs == 1 })

	vanish.Store(true)
	j := tinyJob(0)
	go st.Accept(j.Key(), j, false)
	<-arrived
	if err := st.Done(j.Key(), &jobs.Result{ID: j.Key()}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sh.Close()
	if took := time.Since(start); took > sh.timeout*3/2 {
		t.Errorf("Close took %v against a vanished standby, want about the ship timeout (%v)", took, sh.timeout)
	}
}

// TestShipStreamCutByPartition: a partition of the standby's host cuts
// the stream already open to it, as it fails a new request. The next
// accept's batch never reaches the standby; its ship counts in
// sync_ship_failures and leaves a resync pending. Once the partition
// heals, the flusher's resync brings the copy up to date.
func TestShipStreamCutByPartition(t *testing.T) {
	standby, sbStore := newStandby(t)
	srv := httptest.NewServer(standby.Handler(http.NotFoundHandler()))
	t.Cleanup(srv.Close)
	parts := faultinject.NewPartitionSet()
	st := openStore(t)
	sh := NewShipper("p", "sb", srv.URL, st)
	sh.SetTransport(parts.Transport(nil))
	sh.flushEvery = 20 * time.Millisecond
	sh.Start()
	t.Cleanup(sh.Close)
	waitFor(t, "initial resync", 10*time.Second, func() bool {
		got := sh.Status()
		return got.Resyncs == 1 && !got.PendingResync
	})

	parts.Block(srv.Listener.Addr().String())
	j := tinyJob(0)
	if err := st.Accept(j.Key(), j, false); err != nil {
		t.Fatal(err)
	}
	if got := sh.Status(); got.SyncShipFailures != 1 || !got.PendingResync {
		t.Fatalf("accept across a partition: %d sync ship failures, pending resync %v; want 1, true",
			got.SyncShipFailures, got.PendingResync)
	}
	if _, last := sbStore.State("p"); last != 0 {
		t.Errorf("the partitioned batch reached the standby: seq %d", last)
	}
	parts.Clear()
	waitFor(t, "the resync to heal the copy", 10*time.Second, func() bool {
		_, last := sbStore.State("p")
		return !sh.Status().PendingResync && last == 1
	})
}
