package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// Shipper is the sending half of journal shipping: a store.Sink that
// replicates one shard's journal to its warm-standby peer, as the
// journal's own bytes, over one long-lived full-duplex HTTP stream.
// Each batch of frames and each resync snapshot is one message on it,
// answered by one ack (wire.go).
//
// Delivery discipline mirrors the durability contract: an accept frame
// (the fsynced one) is shipped before the daemon acknowledges the job,
// so the standby's copy is as strong as the local disk. The store only
// queues frames under its lock; Accept ships after releasing it, so a
// slow standby holds up that accept and nothing else. Done/failed
// frames only queue: they ride the next ship, an accept's or the
// background flusher's, so a cold job costs one standby round trip,
// not two. Any loss (network error, full queue, journal rewrite,
// standby gap report) degrades to a full resync: the shipper exports
// the current journal and ships it whole, replacing the standby's copy.
// Nothing is ever silently divergent. The stream is dialed by the first
// message and dialed again when the standby has ended it between
// messages (an idle stream it timed out, or a restart); a stream that
// breaks with a message unacknowledged fails that message, which for a
// batch means a resync.
type Shipper struct {
	shard   string // our shard name (labels everything shipped)
	peer    string // the standby's name (status only)
	base    string // the standby's base URL
	shipURL string // the stream's URL
	hc      *http.Client
	log     *slog.Logger

	// send serializes messages, so the standby sees frames in journal
	// order, and owns the stream between them. Nothing an append takes
	// waits for it: Queue and JournalRewritten take only mu.
	send   sync.Mutex
	stream *shipStream // the open stream, or nil; changed under send and mu

	mu sync.Mutex
	// queue holds the queued frames back to back, as the journal holds
	// them, after shipHeaderSize bytes of room for the batch message's
	// header; it is nil while nothing is queued. spare is the last acked
	// batch's buffer when it is at most shipSpareMax bytes: the stream is
	// done with it once its round trip has returned.
	queue      []byte
	spare      []byte
	gen        uint64 // generation of the queued frames
	queued     int    // frames in queue
	needResync bool
	closed     bool
	cut        bool // Close's deadline passed: dial no new stream

	own *ownership // the shard's epoch, stamped on every message, and fenced latch

	// flushEvery is the background flusher's tick, shipFlushEvery
	// outside tests; timeout bounds one message's round trip and Close's
	// final flush, shipTimeout outside tests.
	flushEvery, timeout time.Duration

	wake chan struct{}
	done chan struct{}
	exit chan struct{}

	st *store.Store

	framesShipped    atomic.Uint64
	resyncs          atomic.Uint64
	syncShipFailures atomic.Uint64
	ackGen           atomic.Uint64
	ackSeq           atomic.Uint64
}

// Shipper tuning. The queue bound is generous (frames are tiny); once
// it overflows the shipper stops queueing and resyncs instead, so a
// long standby outage costs one snapshot, not unbounded memory.
const (
	shipQueueMax   = 4096
	shipSpareMax   = 4 << 10
	shipFlushEvery = 50 * time.Millisecond
	// shipTimeout bounds one message, from the write of its first byte
	// (and the dial, for a stream's first message) to the read of its
	// ack, and Close's final flush.
	shipTimeout = 5 * time.Second
	shipPath    = "/v1/cluster/ship"
)

// NewShipper wires a shipper for st's journal toward the standby at
// base. Call Start to arm it (SetSink + initial resync) and Close on
// shutdown.
func NewShipper(shard, peer, base string, st *store.Store) *Shipper {
	sh := &Shipper{
		shard:      shard,
		peer:       peer,
		base:       base,
		shipURL:    base + shipPath + "?shard=" + url.QueryEscape(shard),
		hc:         &http.Client{},
		log:        obs.Nop(),
		flushEvery: shipFlushEvery,
		timeout:    shipTimeout,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		exit:       make(chan struct{}),
		st:         st,
		own:        newOwnership(),
	}
	return sh
}

// SetTransport substitutes the shipper's outbound HTTP transport —
// the nemesis harness injects partition-simulating round-trippers
// here. Call before Start.
func (sh *Shipper) SetTransport(rt http.RoundTripper) {
	sh.hc.Transport = rt
}

// SetLogger routes the shipper's degradation log lines (sync-ship
// failures, queue overflows, resyncs) to l. Nil discards them.
func (sh *Shipper) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Nop()
	}
	sh.log = l
}

// Start arms the store's sink and begins the background flusher with
// an immediate full resync — everything journaled before the shipper
// existed (including recovered state from a previous life) reaches the
// standby first.
func (sh *Shipper) Start() {
	sh.mu.Lock()
	sh.needResync = true
	sh.mu.Unlock()
	sh.st.SetSink(sh)
	go sh.run()
	sh.poke()
}

// Close detaches from the store, flushes what it can within the ship
// timeout, and stops: past it, the stream the final flush waits on is
// cut, so a standby that vanished mid-stream does not hold Close.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	sh.st.SetSink(nil)
	cut := time.AfterFunc(sh.timeout, sh.cutOff)
	close(sh.done)
	<-sh.exit
	cut.Stop()
	sh.cutOff() // an accept shipping late opens no stream after Close
	sh.send.Lock()
	sh.dropStream()
	sh.send.Unlock()
}

// Queue implements store.Sink: it queues one appended frame, under
// the store lock, and never waits on the network. Done and failed
// frames wait here for the next ship: the standby never needs them
// promptly, because adoption re-runs done jobs and a failed one fails
// again deterministically.
func (sh *Shipper) Queue(gen uint64, frame []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.own.load().fenced {
		// Fenced: we lost the keyspace. Nothing ships until a fresh epoch
		// arrives, at which point a full resync supersedes this frame.
		return
	}
	if sh.queued == shipQueueMax {
		// Overflow: drop the backlog, resync when the standby returns.
		sh.queue, sh.queued = nil, 0
		sh.needResync = true
		sh.log.Warn("ship queue overflow; backlog dropped, resync pending", "shard", sh.shard, "standby", sh.peer)
		return
	}
	sh.gen = gen
	if sh.queued == 0 {
		if cap(sh.spare) >= shipHeaderSize+len(frame) {
			sh.queue, sh.spare = sh.spare[:shipHeaderSize], nil
		} else {
			sh.queue = make([]byte, shipHeaderSize, shipHeaderSize+len(frame))
		}
	}
	sh.queue = append(sh.queue, frame...)
	sh.queued++
}

// Ship implements store.Sink: Accept calls it, outside the store lock,
// once its frame is queued. While the stream is in sync it ships the
// queue, the accept's frame and everything before it, and returns once
// the standby has acked it; a failure marks the stream for resync and
// counts against syncShipFailures, but never fails the accept (local
// durability is already secured). While a resync is pending or the
// shipper is fenced it returns at once: the flusher resyncs, and the
// snapshot carries the frame.
func (sh *Shipper) Ship() {
	sh.mu.Lock()
	closed, needResync := sh.closed, sh.needResync
	sh.mu.Unlock()
	fenced := sh.own.load().fenced
	switch {
	case closed || fenced:
		// Nothing ships; after a grant, a resync carries the frame.
	case needResync:
		sh.poke()
	default:
		if err := sh.shipFrames(); err != nil {
			sh.syncShipFailures.Add(1)
			sh.log.Warn("synchronous frame ship failed; standby lags local disk", "shard", sh.shard, "standby", sh.peer, "err", err)
		}
	}
}

// JournalRewritten implements store.Sink: a new generation invalidates
// every queued frame; the flusher resyncs from ExportJournal.
func (sh *Shipper) JournalRewritten(uint64) { sh.markResync() }

// markResync drops the queue and has the flusher ship the whole journal
// next: after a rewrite, or a grant (nothing shipped while fenced).
func (sh *Shipper) markResync() {
	sh.mu.Lock()
	sh.queue, sh.queued = nil, 0
	sh.needResync = true
	sh.mu.Unlock()
	sh.poke()
}

func (sh *Shipper) poke() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// run is the background flusher.
func (sh *Shipper) run() {
	defer close(sh.exit)
	t := time.NewTicker(sh.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-sh.done:
			sh.flush() // best-effort final flush
			return
		case <-sh.wake:
		case <-t.C:
		}
		sh.flush()
	}
}

// flush resyncs if needed, then ships the frame queue.
func (sh *Shipper) flush() {
	sh.mu.Lock()
	needResync := sh.needResync
	sh.mu.Unlock()
	if sh.own.load().fenced {
		return // deposed: wait for a grant
	}
	if needResync {
		if err := sh.resync(); err != nil {
			return // standby unreachable; try again next tick
		}
	}
	// A failure needs nothing more here: a resync or the fence latch is
	// already recorded for the next pass.
	_ = sh.shipFrames()
}

// noteFencedLocked latches the shard's ownership record when err is a
// fencing refusal of its current epoch (sh.mu held); a refusal of an
// epoch that a grant has since replaced is stale and ignored. From the
// latch on, the shard refuses new submissions too. Queued frames are
// dropped: they belong to a keyspace this node no longer owns.
func (sh *Shipper) noteFencedLocked(err error) {
	var fe *FencedError
	if !errors.As(err, &fe) || !sh.own.fence(fe.Epoch, fe.Fence) {
		return
	}
	sh.queue, sh.queued = nil, 0
	sh.log.Warn("shard fenced: keyspace adopted elsewhere; refusing new submissions until a fresh epoch is granted",
		"shard", sh.shard, "standby", sh.peer, "epoch", fe.Epoch, "fence", fe.Fence)
}

// shipFrames ships the queued frames as one batch message. Under send,
// a queue found empty was shipped by the message before this one. The
// queue is taken whole; a failed message or a gap report marks the
// stream for resync, whose snapshot carries the frames.
func (sh *Shipper) shipFrames() error {
	sh.send.Lock()
	defer sh.send.Unlock()
	sh.mu.Lock()
	msg, gen, queued := sh.queue, sh.gen, sh.queued
	sh.queue, sh.queued = nil, 0
	sh.mu.Unlock()
	if queued == 0 {
		return nil
	}
	ack, err := sh.roundTrip(gen, false, msg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil {
		sh.needResync = true
		sh.noteFencedLocked(err)
		return err
	}
	if cap(msg) <= shipSpareMax {
		sh.spare = msg
	}
	sh.framesShipped.Add(uint64(ack.applied))
	sh.ackGen.Store(ack.gen)
	sh.ackSeq.Store(ack.lastSeq)
	if ack.verdict == shipResync {
		sh.needResync = true
		sh.poke()
		return fmt.Errorf("cluster: standby requests resync")
	}
	return nil
}

// resync ships the whole journal as a snapshot message. ExportJournal
// takes the store lock; the message goes out under send only.
func (sh *Shipper) resync() error {
	sh.send.Lock()
	defer sh.send.Unlock()
	gen, journal, err := sh.st.ExportJournal()
	if err != nil {
		return err
	}
	msg := append(make([]byte, shipHeaderSize, shipHeaderSize+len(journal)), journal...)
	ack, err := sh.roundTrip(gen, true, msg)
	if err != nil {
		sh.mu.Lock()
		sh.noteFencedLocked(err)
		sh.mu.Unlock()
		return err
	}
	sh.resyncs.Add(1)
	sh.log.Info("journal resynced to standby", "shard", sh.shard, "standby", sh.peer, "gen", gen, "records", ack.applied)
	sh.ackGen.Store(ack.gen)
	sh.ackSeq.Store(ack.lastSeq)
	sh.mu.Lock()
	sh.needResync = false
	// Frames queued while the snapshot was in flight may predate it;
	// the standby drops duplicates by sequence number, so keep them.
	sh.mu.Unlock()
	return nil
}

// errShipperClosed fails a message that Close's deadline cut off.
var errShipperClosed = errors.New("cluster: shipper closed")

// errShipTimeout is the cause of a stream aborted because a message
// waited longer than the shipper's timeout for its ack.
var errShipTimeout = errors.New("cluster: ship timed out")

// roundTrip sends one message, journal bytes of generation gen (the
// whole journal when snapshot is set) stamped with the current epoch,
// and returns the standby's ack. msg's first shipHeaderSize bytes are
// room for the header. It runs under send: it opens a stream if there
// is none, or if the standby ended the last one between messages, and
// closes a stream that fails. A fenced or refused verdict is an error.
func (sh *Shipper) roundTrip(gen uint64, snapshot bool, msg []byte) (shipAck, error) {
	epoch := sh.own.load().epoch
	putShipHeader(msg, shipHeader{size: uint32(len(msg) - shipHeaderSize), epoch: epoch, gen: gen, snapshot: snapshot})
	if sh.stream != nil && sh.stream.over() {
		sh.dropStream() // idle past the standby's bound, or a standby restart
	}
	if sh.stream == nil {
		if err := sh.dial(); err != nil {
			return shipAck{}, err
		}
	}
	ack, err := sh.stream.roundTrip(msg, sh.timeout)
	if err != nil {
		sh.dropStream()
		return shipAck{}, fmt.Errorf("cluster: %s: %w", shipPath, err)
	}
	switch ack.verdict {
	case shipOK, shipResync:
		return ack, nil
	case shipFenced:
		return ack, &FencedError{Keyspace: sh.shard, Epoch: epoch, Fence: ack.fence}
	case shipRefused:
		return ack, fmt.Errorf("cluster: %s: standby %s refused the message", shipPath, sh.peer)
	}
	sh.dropStream() // not an ack: whatever answers is not a standby in step with us
	return ack, fmt.Errorf("cluster: %s: malformed ack (verdict %d)", shipPath, ack.verdict)
}

// dial opens a stream to the standby and makes it the current one,
// unless Close's deadline has passed. The first message's round trip
// bounds the dial too.
func (sh *Shipper) dial() error {
	st := &shipStream{acks: make(chan [shipAckSize]byte)}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cut {
		return errShipperClosed
	}
	if err := st.dial(sh.hc, sh.shipURL, sh.timeout, errShipTimeout, st.read); err != nil {
		return fmt.Errorf("cluster: %s: %w", shipPath, err)
	}
	sh.stream = st
	return nil
}

// dropStream aborts the current stream, if any, and waits for its
// reader to stop. It runs under send.
func (sh *Shipper) dropStream() {
	sh.mu.Lock()
	st := sh.stream
	sh.stream = nil
	sh.mu.Unlock()
	if st != nil {
		st.abort(errShipperClosed)
		<-st.done
	}
}

// cutOff is Close's deadline: it aborts the stream the final flush is
// waiting on and keeps a new one from being dialed.
func (sh *Shipper) cutOff() {
	sh.mu.Lock()
	sh.cut = true
	st := sh.stream
	sh.mu.Unlock()
	if st != nil {
		st.abort(errShipperClosed)
	}
}

// shipStream is one open ship stream: the request body the shipper
// writes messages into and the response body the standby's acks
// arrive on. One goroutine reads the acks, so a stream the standby
// ends between messages is seen before the next message is sent.
type shipStream struct {
	duplex
	acks chan [shipAckSize]byte
}

// read passes the acks on until the stream ends.
func (st *shipStream) read(body io.Reader) error {
	var ack [shipAckSize]byte
	for {
		if _, err := io.ReadFull(body, ack[:]); err != nil {
			return fmt.Errorf("stream ended: %w", err)
		}
		select {
		case st.acks <- ack:
		case <-st.ctx.Done():
			return context.Cause(st.ctx)
		}
	}
}

// roundTrip writes one message and waits for its ack, within d.
func (st *shipStream) roundTrip(msg []byte, d time.Duration) (shipAck, error) {
	st.timer.Reset(d)
	defer st.timer.Stop()
	if err := st.send(msg); err != nil {
		return shipAck{}, err
	}
	select {
	case ack := <-st.acks:
		return parseShipAck(ack[:]), nil
	case <-st.done:
		return shipAck{}, st.failure()
	}
}

// Status reports the shipper's view for /v1/cluster.
func (sh *Shipper) Status() *ShipTargetStatus {
	sh.mu.Lock()
	queued, pendingResync := sh.queued, sh.needResync
	sh.mu.Unlock()
	return &ShipTargetStatus{
		Name:             sh.peer,
		URL:              sh.base,
		AckGen:           sh.ackGen.Load(),
		AckSeq:           sh.ackSeq.Load(),
		Queued:           queued,
		PendingResync:    pendingResync,
		FramesShipped:    sh.framesShipped.Load(),
		Resyncs:          sh.resyncs.Load(),
		SyncShipFailures: sh.syncShipFailures.Load(),
	}
}
