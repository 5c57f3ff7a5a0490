package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// Shipper is the sending half of journal shipping: a store.Sink that
// replicates one shard's journal frames to its warm-standby peer over
// HTTP.
//
// Delivery discipline mirrors the durability contract: accept frames
// (the fsynced ones) are shipped synchronously — the standby's copy is
// made as strong as the local disk before the daemon acknowledges the
// job. Done/failed frames only queue: they ride the next ship, a
// synchronous one or the background flusher's, so a cold job costs one
// standby round trip, not two. Any loss
// (network error, full queue, journal rewrite, standby gap report)
// degrades to a full resync: the shipper exports the current journal
// generation and ships it as a snapshot that replaces the standby's
// copy. Nothing is ever silently divergent.
type Shipper struct {
	shard string // our shard name (labels everything shipped)
	peer  string // the standby's name (status only)
	base  string // the standby's base URL
	hc    *http.Client
	log   *slog.Logger

	mu         sync.Mutex
	queue      []store.Frame
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
	shipTimeout    = 5 * time.Second
	// maxShipReply bounds the standby's answer to one ship request.
	maxShipReply = 1 << 20
)

// NewShipper wires a shipper for st's journal toward the standby at
// base. Call Start to arm it (SetSink + initial resync) and Close on
// shutdown.
func NewShipper(shard, peer, base string, st *store.Store) *Shipper {
	sh := &Shipper{
		shard:      shard,
		peer:       peer,
		base:       base,
		hc:         &http.Client{Timeout: shipTimeout},
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

// Epoch returns the epoch currently stamped on outbound requests.
func (sh *Shipper) Epoch() uint64 { return sh.epoch.Load() }

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

// ShipFrame implements store.Sink. Synchronous frames are delivered
// inline — together with anything already queued, so the standby sees
// them in order — before the store's caller proceeds; a failure marks
// the stream for resync and counts against syncShipFailures, but never
// fails the local append (local durability is already secured).
// Non-synchronous frames (done, failed) do not wake the flusher: they
// wait for the next synchronous ship or the flusher's next pass. The
// standby never needs them promptly, because adoption re-runs done
// jobs and a failed one fails again deterministically.
func (sh *Shipper) ShipFrame(f store.Frame, sync bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.fenced {
		// Fenced: we lost the keyspace. Nothing ships until a fresh epoch
		// arrives, at which point a full resync supersedes this frame.
		return
	}
	sh.queue = append(sh.queue, f)
	if len(sh.queue) > shipQueueMax {
		// Overflow: drop the backlog, resync when the standby returns.
		sh.queue = sh.queue[:0]
		sh.needResync = true
		sh.log.Warn("ship queue overflow; backlog dropped, resync pending", "shard", sh.shard, "standby", sh.peer)
		return
	}
	switch {
	case !sync:
		// Rides the next synchronous ship or flusher pass.
	case sh.needResync:
		sh.poke() // the flusher resyncs first, then drains the queue
	default:
		if err := sh.flushFramesLocked(); err != nil {
			sh.syncShipFailures.Add(1)
			sh.log.Warn("synchronous frame ship failed; standby lags local disk", "shard", sh.shard, "standby", sh.peer, "err", err)
		}
	}
}

// JournalRewritten implements store.Sink: a new generation invalidates
// every queued frame; the flusher resyncs from ExportJournal.
func (sh *Shipper) JournalRewritten(uint64) {
	sh.mu.Lock()
	sh.queue = sh.queue[:0]
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

// flush resyncs if needed, then drains the frame queue.
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
	sh.mu.Lock()
	// A failure needs nothing more here: the frames stay queued, or a
	// resync or the fence latch is already recorded, for the next pass.
	_ = sh.flushFramesLocked()
	sh.mu.Unlock()
}

// noteFencedLocked latches the fenced state when err is a fencing
// rejection (sh.mu held). Queued frames are dropped — they belong to a
// keyspace this node no longer owns — and the transition callback
// fires once so the shard server can refuse new submissions too.
func (sh *Shipper) noteFencedLocked(err error) {
	var fe *FencedError
	if !errors.As(err, &fe) || sh.fenced {
		return
	}
	sh.fenced = true
	sh.queue = sh.queue[:0]
	sh.log.Warn("shipper fenced: keyspace adopted elsewhere; awaiting fresh epoch",
		"shard", sh.shard, "standby", sh.peer, "epoch", fe.Epoch, "fence", fe.Fence)
	if sh.onFenced != nil {
		go sh.onFenced(fe.Fence)
	}
}

// flushFramesLocked posts the queued frames (sh.mu held). On success
// the queue empties; a gap report clears it too (the snapshot will
// supersede); a network error keeps it for the next tick.
func (sh *Shipper) flushFramesLocked() error {
	if len(sh.queue) == 0 {
		return nil
	}
	resp, err := sh.postShip(shipRequest{Shard: sh.shard, Epoch: sh.epoch.Load(), Frames: sh.queue})
	if err != nil {
		sh.noteFencedLocked(err)
		return err
	}
	sh.framesShipped.Add(uint64(resp.Applied))
	sh.ackGen.Store(resp.Gen)
	sh.ackSeq.Store(resp.LastSeq)
	sh.queue = sh.queue[:0]
	if resp.Resync {
		sh.needResync = true
		sh.poke()
		return fmt.Errorf("cluster: standby requests resync")
	}
	return nil
}

// resync exports the journal and ships it as a snapshot. Runs outside
// sh.mu (ExportJournal takes the store lock).
func (sh *Shipper) resync() error {
	gen, recs, nextSeq, err := sh.st.ExportJournal()
	if err != nil {
		return err
	}
	resp, err := sh.postShip(shipRequest{Shard: sh.shard, Epoch: sh.epoch.Load(), Snapshot: true, Gen: gen, NextSeq: nextSeq, Records: recs})
	if err != nil {
		sh.mu.Lock()
		sh.noteFencedLocked(err)
		sh.mu.Unlock()
		return err
	}
	sh.resyncs.Add(1)
	sh.log.Info("journal resynced to standby", "shard", sh.shard, "standby", sh.peer, "gen", gen, "records", len(recs))
	sh.ackGen.Store(resp.Gen)
	sh.ackSeq.Store(resp.LastSeq)
	sh.mu.Lock()
	sh.needResync = false
	// Frames queued while the snapshot was in flight may predate it;
	// the standby drops duplicates by sequence number, so keep them.
	sh.mu.Unlock()
	return nil
}

// postShip posts one ship request to the standby and decodes its
// acknowledgement.
func (sh *Shipper) postShip(req shipRequest) (*shipResponse, error) {
	const path = "/v1/cluster/ship"
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	resp, err := sh.hc.Post(sh.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer resp.Body.Close()
	// An ack and a refusal are both a few dozen bytes: read either under
	// one bound, so a broken or hostile standby cannot make the shipper
	// buffer an endless body.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShipReply))
	if err != nil {
		return nil, fmt.Errorf("cluster: read %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		// A 409 of kind "fenced" is a typed verdict (we lost the
		// keyspace), not a generic transport error.
		var fb fencedBody
		if resp.StatusCode == http.StatusConflict && json.Unmarshal(raw, &fb) == nil && fb.Kind == "fenced" {
			return nil, &FencedError{Keyspace: sh.shard, Epoch: sh.epoch.Load(), Fence: fb.Epoch}
		}
		return nil, fmt.Errorf("cluster: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ack shipResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return nil, fmt.Errorf("cluster: decode %s response: %w", path, err)
	}
	return &ack, nil
}

// Status reports the shipper's view for /v1/cluster.
func (sh *Shipper) Status() *ShipTargetStatus {
	sh.mu.Lock()
	queued, pendingResync, fenced := len(sh.queue), sh.needResync, sh.fenced
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
