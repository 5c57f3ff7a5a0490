package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// ShardServer is the shard-side cluster surface, layered over the
// plain job API:
//
//	POST /v1/cluster/ship   receive shipped journal frames/snapshots
//	POST /v1/cluster/adopt  take over a dead shard's jobs
//	POST /v1/cluster/epoch  install a router-granted ownership epoch
//	GET  /v1/cluster        role, shipping target, standby holdings
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

	// epoch is this shard's ownership epoch for its own keyspace;
	// fenced latches when the standby refuses it (our keyspace was
	// adopted elsewhere) and clears when the router grants a fresh
	// epoch via POST /v1/cluster/epoch. While fenced, new submissions
	// are refused with 503 (kind "fenced") — reads keep serving.
	epoch  atomic.Uint64
	fenced atomic.Bool

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
// and shipper the outbound replication (nil when not shipping).
func NewShardServer(name string, pool *jobs.Pool,
	// Deprecated: the recorder argument is ignored. Adoption re-runs
	// marooned jobs from cycle 0 and imports nothing into the shard's
	// own store; the parameter stays only so existing callers still
	// compile.
	_ jobs.Recorder,
	standby *store.StandbyStore, shipper *Shipper) *ShardServer {
	s := &ShardServer{
		name:    name,
		pool:    pool,
		standby: standby,
		shipper: shipper,
		log:     obs.Nop(),
		adopted: map[string]AdoptResult{},
	}
	s.epoch.Store(1)
	if shipper != nil {
		shipper.SetOnFenced(func(fence uint64) {
			s.fenced.Store(true)
			s.log.Warn("shard fenced: refusing new submissions until a fresh epoch is granted",
				"shard", s.name, "fence", fence)
		})
	}
	return s
}

// Handler routes the cluster endpoints and falls through to next (the
// jobs API handler) for everything else.
func (s *ShardServer) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/ship", s.handleShip)
	mux.HandleFunc("POST /v1/cluster/adopt", s.handleAdopt)
	mux.HandleFunc("POST /v1/cluster/epoch", s.handleEpoch)
	mux.HandleFunc("GET /v1/cluster", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A fenced shard lost its keyspace: accepting a write here could
		// produce a second owner for the same (keyspace, epoch). Refuse
		// until the router grants a fresh epoch; reads fall through.
		if s.fenced.Load() {
			w.Header().Set("Retry-After", "1")
			jobs.WriteJSON(w, http.StatusServiceUnavailable, &jobs.APIError{
				Message: (&FencedError{Keyspace: s.name, Epoch: s.epoch.Load()}).Error(),
				Kind:    "fenced",
				Status:  http.StatusServiceUnavailable,
			})
			return
		}
		next.ServeHTTP(w, r)
	})
	mux.Handle("/", next)
	return mux
}

// fenceCheck enforces the epoch fence on an inbound replication
// request for keyspace shard. A stale epoch is refused with HTTP 409
// (kind "fenced", carrying the fence); a higher one is learned and
// persisted — a legitimate ship from a newer owner ratchets the fence
// forward so the deposed owner can never slip back in.
func (s *ShardServer) fenceCheck(w http.ResponseWriter, shard string, epoch uint64) bool {
	fence := s.standby.FenceEpoch(shard)
	if epoch < fence {
		jobs.WriteJSON(w, http.StatusConflict, fencedBody{
			Error:  (&FencedError{Keyspace: shard, Epoch: epoch, Fence: fence}).Error(),
			Kind:   "fenced",
			Epoch:  fence,
			Status: http.StatusConflict,
		})
		return false
	}
	if epoch > fence {
		if err := s.standby.Fence(shard, epoch); err != nil {
			jobs.WriteError(w, http.StatusInternalServerError, "persist fence for %s: %v", shard, err)
			return false
		}
	}
	return true
}

// handleEpoch installs a router-granted ownership epoch for this
// shard's own keyspace: the fenced latch clears and the shipper (when
// present) rejoins by resyncing at the new epoch.
func (s *ShardServer) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req epochRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Keyspace != s.name {
		jobs.WriteError(w, http.StatusBadRequest, "epoch grant for keyspace %q does not name this shard (%s)", req.Keyspace, s.name)
		return
	}
	if req.Epoch <= s.epoch.Load() {
		jobs.WriteError(w, http.StatusBadRequest, "epoch %d does not advance current epoch %d", req.Epoch, s.epoch.Load())
		return
	}
	s.epoch.Store(req.Epoch)
	wasFenced := s.fenced.Swap(false)
	if s.shipper != nil {
		s.shipper.SetEpoch(req.Epoch)
	}
	s.log.Info("ownership epoch granted", "shard", s.name, "epoch", req.Epoch, "was_fenced", wasFenced)
	jobs.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": req.Epoch})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxShipBody))
	if err := jobs.ReadBody(w, r, func() error { return dec.Decode(v) }); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleShip files shipped journal bytes into the standby copy: a
// batch of frames, or with snapshot=1 a whole journal that replaces the
// copy. The fence check runs before anything is applied. Continuity
// violations in a batch are not errors at the HTTP layer: the
// response's resync flag tells the shipper to send a snapshot. A batch
// that ends mid-frame applies the whole frames before that point and
// asks for a resync, as a frame that fails verification does; a
// snapshot that does not replay whole is a 400 and installs nothing.
func (s *ShardServer) handleShip(w http.ResponseWriter, r *http.Request) {
	if s.standby == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "shard %s has no standby storage (-data-dir required)", s.name)
		return
	}
	q := r.URL.RawQuery
	shard := jobs.QueryValue(q, "shard")
	if shard == "" || shard == s.name {
		jobs.WriteError(w, http.StatusBadRequest, "invalid source shard %q", shard)
		return
	}
	epoch, err := queryUint(q, "epoch")
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad epoch: %v", err)
		return
	}
	gen, err := queryUint(q, "gen")
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad gen: %v", err)
		return
	}
	var body []byte
	if err := jobs.ReadBody(w, r, func() (err error) {
		body, err = jobs.ReadLimited(r.Body, r.ContentLength, maxShipBody)
		return err
	}); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.fenceCheck(w, shard, epoch) {
		return
	}
	var resp shipResponse
	if jobs.QueryValue(q, "snapshot") == "1" {
		if resp.Applied, err = s.standby.InstallSnapshot(shard, gen, body); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, store.ErrBadFrame) {
				status = http.StatusBadRequest
			}
			jobs.WriteError(w, status, "install snapshot from %s: %v", shard, err)
			return
		}
		s.log.Info("installed journal snapshot", "shard", s.name, "from", shard, "gen", gen, "records", resp.Applied)
	} else if resp.Applied, err = s.standby.ApplyFrames(shard, gen, body); err != nil {
		if !errors.Is(err, store.ErrGap) && !errors.Is(err, store.ErrBadFrame) {
			jobs.WriteError(w, http.StatusInternalServerError, "apply frames from %s: %v", shard, err)
			return
		}
		resp.Resync = true
	}
	resp.Gen, resp.LastSeq = s.standby.State(shard)
	jobs.WriteJSON(w, http.StatusOK, resp)
}

// queryUint reads an optional decimal query value; absent reads as 0.
func queryUint(rawQuery, key string) (uint64, error) {
	v := jobs.QueryValue(rawQuery, key)
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

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
	if req.Shard == "" || req.Shard == s.name {
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
	// Fence before replaying: from this moment the old primary's ships
	// (stamped with the pre-adoption epoch) are refused, so the journal
	// we are about to replay can never be extended behind our back.
	if req.Epoch > 0 {
		if err := s.standby.Fence(req.Shard, req.Epoch); err != nil {
			sp.SetError(err)
			jobs.WriteError(w, http.StatusInternalServerError, "fence %s at epoch %d: %v", req.Shard, req.Epoch, err)
			return
		}
	}
	recovered, err := s.standby.Recover(req.Shard)
	if err != nil {
		sp.SetError(err)
		jobs.WriteError(w, http.StatusInternalServerError, "recover %s: %v", req.Shard, err)
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
	st := NodeStatus{Role: "shard", Shard: s.name, Epoch: s.epoch.Load(), Fenced: s.fenced.Load()}
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
