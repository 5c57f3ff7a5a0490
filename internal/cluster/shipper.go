package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// Shipper is the sending half of journal shipping: a store.Sink that
// replicates one shard's journal to its warm-standby peer over HTTP, as
// the journal's own bytes.
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
// Nothing is ever silently divergent.
type Shipper struct {
	shard   string // our shard name (labels everything shipped)
	peer    string // the standby's name (status only)
	base    string // the standby's base URL
	shipURL string // the ship URL, up to the epoch's value
	hc      *http.Client
	log     *slog.Logger

	// send serializes ship POSTs, so the standby sees frames in journal
	// order. Nothing an append takes waits for it: Queue and
	// JournalRewritten take only mu.
	send sync.Mutex

	mu         sync.Mutex
	gen        uint64 // generation of the queued frames
	queue      []byte // queued frames, back to back, as the journal holds them
	queued     int    // frames in queue
	needResync bool
	fenced     bool // standby refused our epoch: stop shipping until SetEpoch
	closed     bool

	onFenced func(fence uint64) // fired once per fenced transition

	// flushEvery is the background flusher's tick, shipFlushEvery
	// outside tests.
	flushEvery time.Duration

	wake chan struct{}
	done chan struct{}
	exit chan struct{}

	st *store.Store

	epoch            atomic.Uint64 // our keyspace ownership epoch, stamped on every request
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
	shipFlushEvery = 50 * time.Millisecond
	// shipTimeout bounds one ship request, from dial to the read of the
	// standby's answer.
	shipTimeout = 5 * time.Second
	// maxShipReply bounds the standby's answer to one ship request.
	maxShipReply = 1 << 20
	shipPath     = "/v1/cluster/ship"
)

// NewShipper wires a shipper for st's journal toward the standby at
// base. Call Start to arm it (SetSink + initial resync) and Close on
// shutdown.
func NewShipper(shard, peer, base string, st *store.Store) *Shipper {
	sh := &Shipper{
		shard:      shard,
		peer:       peer,
		base:       base,
		shipURL:    base + shipPath + "?shard=" + url.QueryEscape(shard) + "&epoch=",
		hc:         &http.Client{},
		log:        obs.Nop(),
		flushEvery: shipFlushEvery,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		exit:       make(chan struct{}),
		st:         st,
	}
	sh.epoch.Store(1) // keyspaces start life at epoch 1, matching the router
	return sh
}

// SetTransport substitutes the shipper's outbound HTTP transport —
// the nemesis harness injects partition-simulating round-trippers
// here. Call before Start.
func (sh *Shipper) SetTransport(rt http.RoundTripper) {
	sh.hc.Transport = rt
}

// SetOnFenced registers the fenced-transition callback, fired (on its
// own goroutine) the first time the standby refuses the shipper's
// epoch. The shard server uses it to latch its own submit fence. Call
// before Start.
func (sh *Shipper) SetOnFenced(fn func(fence uint64)) {
	sh.onFenced = fn
}

// SetEpoch installs a freshly granted ownership epoch: the fenced
// latch clears and the shipper rejoins by resyncing its whole journal
// at the new epoch (nothing shipped while fenced, so only a snapshot
// re-establishes continuity).
func (sh *Shipper) SetEpoch(epoch uint64) {
	if epoch <= sh.epoch.Load() {
		return
	}
	sh.epoch.Store(epoch)
	sh.mu.Lock()
	wasFenced := sh.fenced
	sh.fenced = false
	sh.needResync = true
	sh.mu.Unlock()
	if wasFenced {
		sh.log.Info("epoch granted; rejoining via resync", "shard", sh.shard, "epoch", epoch)
	}
	sh.poke()
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

// Close detaches from the store, flushes what it can, and stops.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	sh.st.SetSink(nil)
	close(sh.done)
	<-sh.exit
}

// Queue implements store.Sink: it queues one appended frame, under
// the store lock, and never waits on the network. Done and failed
// frames wait here for the next ship: the standby never needs them
// promptly, because adoption re-runs done jobs and a failed one fails
// again deterministically.
func (sh *Shipper) Queue(gen uint64, frame []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.fenced {
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
	sh.queue = append(sh.queue, frame...)
	sh.queued++
}

// Ship implements store.Sink: Accept calls it, outside the store lock,
// once its frame is queued. While the stream is in sync it ships the
// queue, the accept's frame and everything before it, and returns once
// the standby has answered; a failure marks the stream for resync and
// counts against syncShipFailures, but never fails the accept (local
// durability is already secured). While a resync is pending or the
// shipper is fenced it returns at once: the flusher resyncs, and the
// snapshot carries the frame.
func (sh *Shipper) Ship() {
	sh.mu.Lock()
	closed, fenced, needResync := sh.closed, sh.fenced, sh.needResync
	sh.mu.Unlock()
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
func (sh *Shipper) JournalRewritten(uint64) {
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
	needResync, fenced := sh.needResync, sh.fenced
	sh.mu.Unlock()
	if fenced {
		return // deposed: wait for SetEpoch
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

// noteFencedLocked latches the fenced state when err is a fencing
// rejection of our current epoch (sh.mu held). A refusal of an epoch
// that a grant has since replaced is stale and ignored. Queued frames
// are dropped — they belong to a keyspace this node no longer owns —
// and the transition callback fires once so the shard server can
// refuse new submissions too.
func (sh *Shipper) noteFencedLocked(err error) {
	var fe *FencedError
	if !errors.As(err, &fe) || sh.fenced || fe.Epoch < sh.epoch.Load() {
		return
	}
	sh.fenced = true
	sh.queue, sh.queued = nil, 0
	sh.log.Warn("shipper fenced: keyspace adopted elsewhere; awaiting fresh epoch",
		"shard", sh.shard, "standby", sh.peer, "epoch", fe.Epoch, "fence", fe.Fence)
	if sh.onFenced != nil {
		go sh.onFenced(fe.Fence)
	}
}

// shipFrames posts the queued frames as one batch. Under send, a queue
// found empty was shipped by the POST before this one. The queue is
// taken whole; a failed POST or a gap report marks the stream for
// resync, whose snapshot carries the frames.
func (sh *Shipper) shipFrames() error {
	sh.send.Lock()
	defer sh.send.Unlock()
	sh.mu.Lock()
	batch, gen := sh.queue, sh.gen
	sh.queue, sh.queued = nil, 0
	sh.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	resp, err := sh.post(gen, false, batch)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil {
		sh.needResync = true
		sh.noteFencedLocked(err)
		return err
	}
	sh.framesShipped.Add(uint64(resp.Applied))
	sh.ackGen.Store(resp.Gen)
	sh.ackSeq.Store(resp.LastSeq)
	if resp.Resync {
		sh.needResync = true
		sh.poke()
		return fmt.Errorf("cluster: standby requests resync")
	}
	return nil
}

// resync ships the whole journal as a snapshot. ExportJournal takes
// the store lock; the POST runs under send only.
func (sh *Shipper) resync() error {
	sh.send.Lock()
	defer sh.send.Unlock()
	gen, journal, err := sh.st.ExportJournal()
	if err != nil {
		return err
	}
	resp, err := sh.post(gen, true, journal)
	if err != nil {
		sh.mu.Lock()
		sh.noteFencedLocked(err)
		sh.mu.Unlock()
		return err
	}
	sh.resyncs.Add(1)
	sh.log.Info("journal resynced to standby", "shard", sh.shard, "standby", sh.peer, "gen", gen, "records", resp.Applied)
	sh.ackGen.Store(resp.Gen)
	sh.ackSeq.Store(resp.LastSeq)
	sh.mu.Lock()
	sh.needResync = false
	// Frames queued while the snapshot was in flight may predate it;
	// the standby drops duplicates by sequence number, so keep them.
	sh.mu.Unlock()
	return nil
}

// post sends one ship request, journal frames of generation gen (the
// whole journal when snapshot is set), to the standby under shipTimeout
// and decodes its acknowledgement.
func (sh *Shipper) post(gen uint64, snapshot bool, body []byte) (*shipResponse, error) {
	epoch := sh.epoch.Load()
	target := sh.shipURL + strconv.FormatUint(epoch, 10) + "&gen=" + strconv.FormatUint(gen, 10)
	if snapshot {
		target += "&snapshot=1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", shipPath, err)
	}
	req.Header.Set("Content-Type", shipType)
	resp, err := sh.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", shipPath, err)
	}
	defer resp.Body.Close()
	// An ack and a refusal are both a few dozen bytes: read either under
	// one bound, so a broken or hostile standby cannot make the shipper
	// buffer an endless body.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShipReply))
	if err != nil {
		return nil, fmt.Errorf("cluster: read %s response: %w", shipPath, err)
	}
	if resp.StatusCode != http.StatusOK {
		// A 409 of kind "fenced" is a typed verdict (we lost the
		// keyspace), not a generic transport error.
		var fb fencedBody
		if resp.StatusCode == http.StatusConflict && json.Unmarshal(raw, &fb) == nil && fb.Kind == "fenced" {
			return nil, &FencedError{Keyspace: sh.shard, Epoch: epoch, Fence: fb.Epoch}
		}
		return nil, fmt.Errorf("cluster: %s: HTTP %d: %s", shipPath, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ack shipResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return nil, fmt.Errorf("cluster: decode %s response: %w", shipPath, err)
	}
	return &ack, nil
}

// Status reports the shipper's view for /v1/cluster.
func (sh *Shipper) Status() *ShipTargetStatus {
	sh.mu.Lock()
	queued, pendingResync, fenced := sh.queued, sh.needResync, sh.fenced
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
		Epoch:            sh.epoch.Load(),
		Fenced:           fenced,
	}
}
