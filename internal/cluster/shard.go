package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// ShardServer is the shard-side cluster surface, layered over the
// plain job API:
//
//	POST /v1/cluster/ship    receive a stream of shipped journal batches/snapshots
//	POST /v1/cluster/forward serve a router's stream of forwarded submits
//	POST /v1/cluster/adopt   take over a dead shard's jobs
//	POST /v1/cluster/epoch   install a router-granted ownership epoch
//	GET  /v1/cluster         role, shipping target, standby holdings
//
// A shard can play both halves at once: primary for its own keyspace
// (shipping its journal out via Shipper) and standby for a peer's
// (filing shipped journals in a StandbyStore, adopting on demand).
// Any field but the pool may be nil — a diskless shard serves jobs and
// reports status but refuses shipping and adoption with 503.
type ShardServer struct {
	name    string
	pool    *jobs.Pool
	standby *store.StandbyStore // shipped copies filed here
	shipper *Shipper            // our own journal's replication, nil when not shipping

	log *slog.Logger

	// own is this shard's ownership epoch for its own keyspace and its
	// fenced latch, shared with the shipper, which latches it when the
	// standby refuses the epoch (our keyspace was adopted elsewhere). A
	// fresh epoch granted via POST /v1/cluster/epoch clears it. While
	// fenced, new submissions are refused with 503 (kind "fenced") —
	// reads keep serving.
	own *ownership

	// streams is cancelled by EndStreams; msgTimeout bounds the read of
	// one message, counted from the previous ack on a ship stream and
	// from the previous frame on a forward stream,
	// jobs.BodyReadTimeout outside tests. maxInFlight bounds the
	// requests one forward stream has open, maxInFlight outside tests.
	streams     context.Context
	endStreams  context.CancelFunc
	msgTimeout  time.Duration
	maxInFlight int

	mu      sync.Mutex
	adopted map[string]AdoptResult
}

// SetLogger routes the shard's cluster-event log lines (snapshot
// installs, adoptions) to l. Nil (the default) discards them.
func (s *ShardServer) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Nop()
	}
	s.log = l
}

// NewShardServer assembles the shard-side surface. standby is the
// receiving store for peers' shipped journals (nil when not a standby)
// and shipper the outbound replication (nil when not shipping), whose
// ownership record the shard shares.
func NewShardServer(name string, pool *jobs.Pool,
	// Deprecated: the recorder argument is ignored. Adoption re-runs
	// marooned jobs from cycle 0 and imports nothing into the shard's
	// own store; the parameter stays only so existing callers still
	// compile.
	_ jobs.Recorder,
	standby *store.StandbyStore, shipper *Shipper) *ShardServer {
	s := &ShardServer{
		name:        name,
		pool:        pool,
		standby:     standby,
		shipper:     shipper,
		log:         obs.Nop(),
		msgTimeout:  jobs.BodyReadTimeout,
		maxInFlight: maxInFlight,
		adopted:     map[string]AdoptResult{},
		own:         newOwnership(),
	}
	if shipper != nil {
		s.own = shipper.own
	}
	s.streams, s.endStreams = context.WithCancel(context.Background())
	return s
}

// Handler routes the cluster endpoints and falls through to next (the
// jobs API handler) for everything else.
func (s *ShardServer) Handler(next http.Handler) http.Handler {
	submit := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A fenced shard lost its keyspace: accepting a write here could
		// produce a second owner for the same (keyspace, epoch). Refuse
		// until the router grants a fresh epoch; reads fall through.
		if own := s.own.load(); own.fenced {
			w.Header().Set("Retry-After", "1")
			jobs.WriteJSON(w, http.StatusServiceUnavailable, &jobs.APIError{
				Message: (&FencedError{Keyspace: s.name, Epoch: own.epoch, Fence: own.fence}).Error(),
				Kind:    "fenced",
				Status:  http.StatusServiceUnavailable,
			})
			return
		}
		next.ServeHTTP(w, r)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/ship", s.handleShip)
	mux.HandleFunc("POST "+forwardPath, func(w http.ResponseWriter, r *http.Request) { s.handleForward(w, r, submit) })
	mux.HandleFunc("POST /v1/cluster/adopt", s.handleAdopt)
	mux.HandleFunc("POST /v1/cluster/epoch", s.handleEpoch)
	mux.HandleFunc("GET /v1/cluster", s.handleStatus)
	mux.Handle("POST /v1/jobs", submit)
	mux.Handle("/", next)
	return mux
}

// handleEpoch installs a router-granted ownership epoch for this
// shard's own keyspace: the fenced latch clears and the shipper (when
// present) rejoins by resyncing at the new epoch. A grant must advance
// the epoch; this is the one place that checks it.
func (s *ShardServer) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req epochRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Keyspace != s.name {
		jobs.WriteError(w, http.StatusBadRequest, "epoch grant for keyspace %q does not name this shard (%s)", req.Keyspace, s.name)
		return
	}
	prev, ok := s.own.grant(req.Epoch)
	if !ok {
		jobs.WriteError(w, http.StatusBadRequest, "epoch %d does not advance current epoch %d", req.Epoch, prev.epoch)
		return
	}
	if s.shipper != nil {
		s.shipper.markResync()
	}
	s.log.Info("ownership epoch granted", "shard", s.name, "epoch", req.Epoch, "was_fenced", prev.fenced)
	jobs.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": req.Epoch})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxControlBody))
	if err := jobs.ReadBody(w, r, func() error { return dec.Decode(v) }); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleShip serves one primary's ship stream: it reads the messages
// in turn and answers each with one ack once it is applied, so the
// primary's accept returns only after the standby holds its frame
// (fsynced, for an accept). Each message is read whole, under
// msgTimeout counted from the previous ack and under maxShipBody, into
// a buffer dropped once it is applied; so a stream idle past msgTimeout
// ends, and the shipper dials again. A message longer than maxShipBody
// is refused unread and ends the stream; a message cut short ends it
// with no ack and nothing applied. A claimed length costs memory only
// as its bytes arrive (readMessage). Refusals of the request itself (no
// standby storage, a bad shard name) are HTTP errors, answered before
// any message is read.
func (s *ShardServer) handleShip(w http.ResponseWriter, r *http.Request) {
	if s.standby == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "shard %s has no standby storage (-data-dir required)", s.name)
		return
	}
	shard := jobs.QueryValue(r.URL.RawQuery, "shard")
	if shard == s.name || !store.ValidShard(shard) {
		jobs.WriteError(w, http.StatusBadRequest, "invalid source shard %q", shard)
		return
	}
	in := s.serveStream(w)
	if in == nil {
		return
	}
	defer in.close()
	buf := make([]byte, shipHeaderSize, max(shipHeaderSize, shipAckSize)) // a message header, then its ack
	for in.arm(s.msgTimeout) {
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return // the shipper ended the stream, or it idled past msgTimeout
		}
		h := parseShipHeader(buf)
		var ack shipAck
		if h.size > maxShipBody {
			s.log.Warn("ship message refused", "shard", s.name, "from", shard, "bytes", h.size, "limit", maxShipBody)
			ack.verdict = shipRefused
		} else {
			body, err := readMessage(r.Body, int(h.size))
			if err != nil {
				return
			}
			ack = s.applyShip(shard, h, body)
		}
		ack.gen, ack.lastSeq = s.standby.State(shard)
		ack.fence = s.standby.FenceEpoch(shard)
		buf = buf[:shipAckSize]
		putShipAck(buf, ack)
		if _, err := w.Write(buf); err != nil || in.rc.Flush() != nil || h.size > maxShipBody {
			return
		}
		buf = buf[:shipHeaderSize]
	}
}

// applyShip files one message into the standby copy of shard and
// returns its verdict and count; the caller adds the copy's state. The
// store applies the fence rule under the lock it writes the copy under
// (an epoch below the fence applies nothing, a higher one raises it);
// here its errors only become verdicts. A batch appends the frames that
// extend the copy, and a gap or a bad frame asks for a resync after the
// whole frames before it; a snapshot replaces the copy only if it
// replays whole.
func (s *ShardServer) applyShip(shard string, h shipHeader, body []byte) shipAck {
	apply := s.standby.ApplyFrames
	if h.snapshot {
		apply = s.standby.InstallSnapshot
	}
	n, err := apply(shard, h.epoch, h.gen, body)
	ack := shipAck{verdict: shipOK, applied: uint32(n)}
	switch {
	case err == nil:
		if h.snapshot {
			s.log.Info("installed journal snapshot", "shard", s.name, "from", shard, "gen", h.gen, "records", n)
		}
	case errors.Is(err, store.ErrFenced):
		ack.verdict = shipFenced
	case !h.snapshot && (errors.Is(err, store.ErrGap) || errors.Is(err, store.ErrBadFrame)):
		ack.verdict = shipResync
	default:
		s.log.Warn("ship message refused", "shard", s.name, "from", shard, "gen", h.gen, "snapshot", h.snapshot, "err", err)
		ack.verdict = shipRefused
	}
	return ack
}

// EndStreams ends every inbound stream, ship and forward, at its next
// message boundary, and any that opens later at once. A ship message
// being applied is still acked, and a forwarded request already read is
// still answered; a message still arriving is cut. regvd calls it when
// a graceful shutdown starts, so that an open stream, which is never
// idle, does not hold the drain window; its sender dials again.
func (s *ShardServer) EndStreams() { s.endStreams() }

// handleAdopt replays a dead shard's shipped journal into this shard's
// pool: the recovered jobs are re-registered, and pending ones
// re-enqueue and run here from cycle 0 (determinism makes the re-run
// byte-identical). Adoption is idempotent: jobs already known to the
// pool are skipped by Restore, so the router may call this on every
// failover without double-running anything.
func (s *ShardServer) handleAdopt(w http.ResponseWriter, r *http.Request) {
	if s.standby == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "shard %s has no standby storage (-data-dir required)", s.name)
		return
	}
	var req adoptRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The standby's own naming rule, checked before any fence or
	// recover work: a name it would refuse is bad input, not a fault.
	if req.Shard == s.name || !store.ValidShard(req.Shard) {
		jobs.WriteError(w, http.StatusBadRequest, "cannot adopt shard %q", req.Shard)
		return
	}
	// Join the router's adoption trace so the standby's replay shows up
	// on the same timeline as the cluster.adopt span that triggered it.
	ctx := obs.ExtractHTTP(r.Context(), r.Header)
	ctx, sp := s.pool.Tracer().Start(ctx, "cluster.adopt.replay")
	defer sp.End()
	sp.SetAttr("shard", s.name)
	sp.SetAttr("from", req.Shard)
	// Recover fences the copy at the adoption's epoch in the same call
	// that replays it: from that moment the old primary's messages
	// (stamped with the pre-adoption epoch) are refused, so the journal
	// replayed here can never be extended behind our back.
	recovered, err := s.standby.Recover(req.Shard, req.Epoch)
	if err != nil {
		sp.SetError(err)
		jobs.WriteError(w, http.StatusInternalServerError, "recover %s at epoch %d: %v", req.Shard, req.Epoch, err)
		return
	}
	resumed := s.pool.Restore(recovered)
	sp.SetAttr("jobs", strconv.Itoa(len(recovered)))
	sp.SetAttr("resumed", strconv.Itoa(resumed))
	s.log.InfoContext(ctx, "adopted peer shard's jobs", "shard", s.name, "from", req.Shard,
		"jobs", len(recovered), "resumed", resumed)
	res := AdoptResult{Shard: req.Shard, Jobs: len(recovered), Resumed: resumed}
	s.mu.Lock()
	prev := s.adopted[req.Shard]
	// Accumulate across repeated adoptions of the same shard: each call
	// resumes only what the previous ones had not.
	res.Resumed += prev.Resumed
	s.adopted[req.Shard] = res
	s.mu.Unlock()
	jobs.WriteJSON(w, http.StatusOK, res)
}

func (s *ShardServer) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := NodeStatus{Role: "shard", Shard: s.name}
	own := s.own.load()
	st.Epoch, st.Fenced = own.epoch, own.fenced
	if s.shipper != nil {
		st.ShipsTo = s.shipper.Status()
	}
	if s.standby != nil {
		st.StandbyFor = s.standby.Status()
		sort.Slice(st.StandbyFor, func(i, j int) bool { return st.StandbyFor[i].Shard < st.StandbyFor[j].Shard })
	}
	s.mu.Lock()
	for _, a := range s.adopted {
		st.Adopted = append(st.Adopted, a)
	}
	s.mu.Unlock()
	sort.Slice(st.Adopted, func(i, j int) bool { return st.Adopted[i].Shard < st.Adopted[j].Shard })
	jobs.WriteJSON(w, http.StatusOK, st)
}
