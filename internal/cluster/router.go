package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/obs"
	"regvirt/internal/workloads"
)

// ShardInfo names one ring member and where to reach it.
type ShardInfo struct {
	Name string
	URL  string
}

// Router health-probe and retry settings.
const (
	// probeInterval is how often every shard's /healthz is probed.
	probeInterval = 500 * time.Millisecond
	// probeTimeout bounds one probe (its /healthz and /v1/cluster calls
	// together) and each of the router's other short control calls to
	// shards: an epoch grant, a peer lookup, one shard's part of a
	// fan-out.
	probeTimeout = 2 * time.Second
	// adoptTimeout bounds an adoption call: the standby replays the dead
	// shard's journal before it answers.
	adoptTimeout = 30 * time.Second
	// failAfter is the consecutive probe failures before a shard is
	// declared down. A request-path connection failure declares it
	// down immediately — the evidence is already in hand.
	failAfter = 2
)

// shardRetry is the per-shard client retry policy: 3 attempts from
// 50ms up to 2s, snappier than the client default so a dead shard
// fails over in well under a second.
var shardRetry = client.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

// RouterOptions wires the router into its process; nil fields are off.
type RouterOptions struct {
	// Transport, when set, carries every call the router makes to a
	// shard (probes, epoch grants, adoptions, fan-outs, forwarded
	// requests). The nemesis harness injects partition-simulating
	// round-trippers here; nil uses the default transport.
	Transport http.RoundTripper
	// Tracer records router-side spans (submit, forward hops, peer
	// lookups, adoptions); the trace context is propagated to shards on
	// every forwarded request, so GET /v1/trace/{id} can stitch the
	// router's spans with the owning shard's. Nil = tracing off.
	Tracer *obs.Tracer
	// Logger receives the router's structured log lines (shard health
	// transitions, failovers, adoptions). Nil discards them.
	Logger *slog.Logger
}

// Router is the coordinator clients talk to: one /v1/jobs surface over
// N shards. Jobs route by consistent hash of their content address, so
// each shard's cache owns a stable keyspace slice and identical
// submissions land on the same cache no matter which client sends
// them. The router keeps its own (bounded, tenant-scrubbed) result
// cache in front, probes shard health, and on a shard death routes the
// dead keyspace to the standby holding its shipped journal — after
// telling that standby to adopt the dead shard's unfinished jobs.
//
// Submits reach a shard over its forward stream (forward.go), one
// long-lived stream per backend; every other call to a shard is a
// plain HTTP request of its node's internal/jobs/client. Submit, status
// and peer lookups use that client's retry loop, so the cluster
// inherits the single-node failure contract: 429s back off with full
// jitter and honor Retry-After floors, 403 policy refusals fail fast
// untried, and network errors (a broken stream, for a submit) burn
// through the retry budget before the router reroutes. Probes, epoch
// grants, adoptions and the /metrics, trace and queues fan-outs make one
// attempt each: the router itself decides what a failure there means.
type Router struct {
	ring      *Ring
	ringNames []string

	// probeEvery and policy are probeInterval and shardRetry; tests
	// speed them up through newRouter.
	probeEvery time.Duration
	policy     client.RetryPolicy

	transport http.RoundTripper
	started   time.Time

	mu     sync.Mutex
	nodes  map[string]*node  // ring members + learned standbys
	epochs map[string]uint64 // keyspace -> ownership epoch (router is the authority)

	// cache holds tenantless result encodings (Result.JSON's bytes): a
	// hit is written out as it is, with the requester's tenant spliced
	// in, and nothing is decoded.
	cache *jobs.Cache[string, []byte]

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	tracer *obs.Tracer
	log    *slog.Logger

	submitted atomic.Uint64
	cacheHits atomic.Uint64
	peerHits  atomic.Uint64
}

// node is one backend the router knows: a ring shard, or a standby
// learned from a shard's /v1/cluster report.
type node struct {
	name   string
	inRing bool
	c      *client.Client
	fwd    *forwarder // the forward stream submits ride

	mu          sync.Mutex
	failN       int  // consecutive probe failures
	down        bool // declared down (failN >= failAfter or a request-path failure)
	everProbed  bool
	standbyName string // learned ships_to while the shard was alive
	standbyURL  string
	adopted     bool // adoption succeeded since the last down transition

	// adoptMu serializes adoption attempts: a request hitting the
	// failover path while another caller's adopt is in flight must wait
	// for it, not race past and 404 on a standby that has not replayed
	// the journal yet.
	adoptMu sync.Mutex

	routed     atomic.Uint64
	failedOver atomic.Uint64
	replayed   atomic.Uint64
}

func (n *node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// NewRouter builds the ring and starts the health prober. Close stops
// it.
func NewRouter(shards []ShardInfo, opts RouterOptions) (*Router, error) {
	return newRouter(shards, opts, probeInterval, shardRetry)
}

func newRouter(shards []ShardInfo, opts RouterOptions, probeEvery time.Duration, policy client.RetryPolicy) (*Router, error) {
	names := make([]string, 0, len(shards))
	for _, s := range shards {
		if s.URL == "" {
			return nil, fmt.Errorf("cluster: shard %q has no URL", s.Name)
		}
		names = append(names, s.Name)
	}
	ring, err := NewRing(names, defaultVNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		ring:       ring,
		ringNames:  ring.Shards(),
		probeEvery: probeEvery,
		policy:     policy,
		nodes:      map[string]*node{},
		epochs:     map[string]uint64{},
		cache:      jobs.NewCache[string, []byte](),
		stop:       make(chan struct{}),
		started:    time.Now(),
		tracer:     opts.Tracer,
		log:        opts.Logger,
		transport:  opts.Transport,
	}
	if r.log == nil {
		r.log = obs.Nop()
	}
	for _, s := range shards {
		r.nodes[s.Name] = r.newNode(s.Name, s.URL, true)
		r.epochs[s.Name] = 1 // every keyspace starts life at epoch 1
	}
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// newNode builds a backend handle. The client's tenant is pinned empty:
// a forwarded submit carries its request's own tenant, so the router
// process's own REGVD_TENANT must not leak onto traffic it relays. The
// client and the forward stream share one HTTP client with no timeout
// of its own (a sync submit waits for its simulation); every other call
// bounds itself with a context deadline.
func (r *Router) newNode(name, url string, inRing bool) *node {
	hc := &http.Client{Transport: r.transport}
	c := client.New(url, client.WithPolicy(r.policy), client.WithTenant(""), client.WithHTTPClient(hc))
	return &node{name: name, inRing: inRing, c: c, fwd: newForwarder(c.Base(), hc)}
}

// submit forwards a caller's POST /v1/jobs body, with its tenant and
// async flag, over the backend's forward stream under the client's
// retry loop, and returns the body of the shard's success.
func (n *node) submit(ctx context.Context, async bool, tenant string, body []byte) ([]byte, error) {
	return n.c.Retry(ctx, http.MethodPost, "/v1/jobs", func(ctx context.Context) (int, string, []byte, error) {
		return n.fwd.roundTrip(ctx, async, tenant, body)
	})
}

// Close stops the prober and ends the forward streams.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	for _, n := range r.snapshotNodes() {
		n.fwd.close()
	}
}

// ---- health probing ----

func (r *Router) probeLoop() {
	defer r.wg.Done()
	r.probeAll() // first verdicts immediately, not a tick later
	t := time.NewTicker(r.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

func (r *Router) snapshotNodes() []*node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n)
	}
	return out
}

func (r *Router) probeAll() {
	for _, n := range r.snapshotNodes() {
		r.probeOne(n)
	}
}

// probeOne checks /healthz and, while the shard is alive, captures its
// /v1/cluster ships_to report — the standby address the router will
// need exactly when the shard can no longer be asked for it.
func (r *Router) probeOne(n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	if n.c.Get(ctx, "/healthz", nil) != nil {
		r.noteProbeFailure(n)
		return
	}
	var st NodeStatus
	if n.c.Get(ctx, "/v1/cluster", &st) != nil {
		st = NodeStatus{}
	}
	r.learnEpochs(n, st)
	// A ring shard reporting an epoch below the router's record is a
	// rejoiner — deposed while partitioned, or restarted with fresh
	// state. Grant it a fresh, higher epoch before treating it as
	// healthy: routing writes to it at a stale epoch would violate the
	// one-writer-per-(keyspace, epoch) invariant.
	if n.inRing && st.Role == "shard" && !r.ensureEpoch(n, st.Epoch) {
		r.noteProbeFailure(n)
		return
	}
	n.mu.Lock()
	n.failN = 0
	n.everProbed = true
	wasDown := n.down
	n.down = false
	if wasDown {
		// Fresh life, fresh journal: a future death needs a fresh adoption.
		n.adopted = false
	}
	if st.ShipsTo != nil && st.ShipsTo.URL != "" {
		n.standbyName, n.standbyURL = st.ShipsTo.Name, st.ShipsTo.URL
	}
	sbName, sbURL := n.standbyName, n.standbyURL
	n.mu.Unlock()
	if wasDown {
		r.log.Info("shard recovered", "shard", n.name, "url", n.c.Base())
	}
	if sbName != "" {
		r.ensureNode(sbName, sbURL)
	}
}

// learnEpochs raises the router's record of each keyspace to the
// highest epoch a probe reports for it: a ring shard's own epoch and
// every standby copy's fence. So a router started after an adoption
// grants the deposed owner an epoch above the adoption's fence, and its
// own next adoption bumps past every epoch in use.
func (r *Router) learnEpochs(n *node, st NodeStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	raise := func(keyspace string, epoch uint64) {
		if cur, ok := r.epochs[keyspace]; ok && epoch > cur {
			r.epochs[keyspace] = epoch
		}
	}
	if n.inRing && st.Role == "shard" {
		raise(n.name, st.Epoch)
	}
	for _, sf := range st.StandbyFor {
		raise(sf.Shard, sf.Fence)
	}
}

// keyspaceEpoch returns the router's current epoch for a keyspace.
func (r *Router) keyspaceEpoch(keyspace string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochs[keyspace]
}

// ensureEpoch reconciles a ring shard's reported ownership epoch with
// the router's record. reported >= current means the shard is the
// legitimate owner (nothing to do). Below it, the router grants
// current+1 via POST /v1/cluster/epoch — never the current value,
// which may already have an owner (the adopter) — and records the
// grant. False means the grant did not land; the shard must not be
// marked healthy at a stale epoch.
func (r *Router) ensureEpoch(n *node, reported uint64) bool {
	r.mu.Lock()
	cur := r.epochs[n.name]
	r.mu.Unlock()
	if reported >= cur {
		return true
	}
	grant := cur + 1
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	err := n.c.Post(ctx, "/v1/cluster/epoch", epochRequest{Keyspace: n.name, Epoch: grant}, nil)
	cancel()
	if err != nil {
		r.log.Warn("epoch grant failed", "shard", n.name, "epoch", grant, "err", err)
		return false
	}
	r.mu.Lock()
	if grant > r.epochs[n.name] {
		r.epochs[n.name] = grant
	}
	r.mu.Unlock()
	r.log.Info("granted fresh ownership epoch to rejoining shard", "shard", n.name, "epoch", grant, "reported", reported)
	return true
}

// ensureNode returns the backend registered under name, first
// registering a learned standby at url as a probe-able one.
func (r *Router) ensureNode(name, url string) *node {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[name]; ok {
		return n
	}
	n := r.newNode(name, url, false)
	r.nodes[name] = n
	return n
}

func (r *Router) noteProbeFailure(n *node) {
	n.mu.Lock()
	n.failN++
	transition := !n.down && n.failN >= failAfter
	if transition {
		n.down = true
	}
	n.mu.Unlock()
	if transition {
		r.log.Warn("shard declared down", "shard", n.name, "reason", "probe", "consecutive_failures", failAfter)
		r.onDown(n)
	}
}

// noteRequestFailure declares a shard down on direct evidence: the
// forwarding client just burned its whole retry budget on connection
// errors. No need to wait for the prober to agree.
func (r *Router) noteRequestFailure(n *node) {
	n.mu.Lock()
	transition := !n.down
	n.down = true
	n.failN = failAfter
	n.mu.Unlock()
	if transition {
		r.log.Warn("shard declared down", "shard", n.name, "reason", "request")
		r.onDown(n)
	}
}

// onDown fires once per up→down transition: kick adoption on the
// standby so the dead shard's accepted jobs resume without waiting for
// a client to ask about them.
func (r *Router) onDown(n *node) {
	if !n.inRing {
		return
	}
	go r.ensureAdopted(n)
}

// ensureAdopted asks the dead shard's standby to adopt its jobs, once
// per down transition. Called synchronously from the routing path so a
// failover request only proceeds after the standby holds the dead
// shard's jobs; the flag latches on success only, so a failed adopt is
// retried by the next failover touch. Adoption itself is idempotent on
// the standby.
func (r *Router) ensureAdopted(n *node) {
	n.adoptMu.Lock()
	defer n.adoptMu.Unlock()
	n.mu.Lock()
	sbName, sbURL := n.standbyName, n.standbyURL
	done := n.adopted
	n.mu.Unlock()
	if done || sbURL == "" {
		return
	}
	sb := r.ensureNode(sbName, sbURL)
	// Adoption starts a fresh trace: it is triggered by a shard death,
	// not by any single client request. The context rides the HTTP call
	// so the standby's cluster.adopt span lands in the same trace.
	ctx, sp := r.tracer.Start(context.Background(), "cluster.adopt")
	defer sp.End()
	sp.SetAttr("shard", n.name)
	sp.SetAttr("standby", sbName)
	// Adoption moves the keyspace to a new epoch: the adopter fences
	// the shipped copy at the bumped value before replaying, so the old
	// primary — maybe only partitioned, not dead — cannot extend it or
	// accept writes as owner from that moment on.
	newEpoch := r.keyspaceEpoch(n.name) + 1
	ctx, cancel := context.WithTimeout(ctx, adoptTimeout)
	defer cancel()
	var res AdoptResult
	if err := sb.c.Post(ctx, "/v1/cluster/adopt", adoptRequest{Shard: n.name, Epoch: newEpoch}, &res); err != nil {
		sp.SetError(err)
		r.log.Warn("adoption failed", "shard", n.name, "standby", sbName, "err", err)
		return
	}
	n.replayed.Add(uint64(res.Resumed))
	sp.SetAttr("resumed", strconv.Itoa(res.Resumed))
	r.log.Info("standby adopted dead shard's jobs", "shard", n.name, "standby", sbName, "resumed", res.Resumed, "epoch", newEpoch)
	r.mu.Lock()
	if newEpoch > r.epochs[n.name] {
		r.epochs[n.name] = newEpoch
	}
	r.mu.Unlock()
	n.mu.Lock()
	n.adopted = true
	n.mu.Unlock()
}

// ---- routing ----

var errAllDown = errors.New("cluster: no shard available")

// route picks the backend for a content address: the ring owner while
// it is healthy; its standby (adoption triggered) when not; the next
// healthy ring shard when there is no reachable standby. Every request
// routed away from its owner counts as one failover on the owner's
// row.
func (r *Router) route(id string) (target, owner *node, err error) {
	r.mu.Lock()
	owner = r.nodes[r.ring.Owner(id)]
	r.mu.Unlock()
	if !owner.isDown() {
		return owner, owner, nil
	}
	defer func() {
		if target != nil && target != owner {
			owner.failedOver.Add(1)
		}
	}()
	owner.mu.Lock()
	sbName := owner.standbyName
	owner.mu.Unlock()
	if sbName != "" {
		r.mu.Lock()
		sb := r.nodes[sbName]
		r.mu.Unlock()
		if sb != nil && sb != owner && !sb.isDown() {
			r.ensureAdopted(owner)
			return sb, owner, nil
		}
	}
	down := map[string]bool{}
	for _, name := range r.ringNames {
		r.mu.Lock()
		n := r.nodes[name]
		r.mu.Unlock()
		if n.isDown() {
			down[name] = true
		}
	}
	alt, ok := r.ring.OwnerAvoiding(id, down)
	if !ok {
		return nil, owner, errAllDown
	}
	r.mu.Lock()
	target = r.nodes[alt]
	r.mu.Unlock()
	return target, owner, nil
}

// ---- result cache (tenant-scrubbed) ----

// cachePut files a result encoding under its content address unless
// one is already cached (content addressing makes both the same
// bytes), and returns the cached encoding. The stored copy is always
// scrubbed of tenant identity: the cache is shared across every tenant
// the router serves, and a hit is stamped per-response — never with
// the tenant whose request happened to fill it.
func (r *Router) cachePut(id string, res []byte) []byte {
	cached, _, _ := r.cache.Do(context.Background(), id, func() ([]byte, error) {
		return jobs.ResultWithTenant(res, ""), nil
	})
	return cached
}

// cachePutResult is cachePut of a decoded result (a status answer, a
// peer's copy).
func (r *Router) cachePutResult(id string, res *jobs.Result) []byte {
	cp := *res
	cp.Tenant = ""
	return r.cachePut(id, cp.JSON())
}

// peerLookup asks every healthy backend's cache/disk tier for an
// already-computed result before anyone re-simulates — the failover
// path's dedup. One status call per peer (its retry budget included)
// under the probe timeout: a miss is cheap, the job runs anyway.
func (r *Router) peerLookup(ctx context.Context, id string, exclude *node) *jobs.Result {
	ctx, sp := r.tracer.Start(ctx, "peer.lookup")
	defer sp.End()
	for _, n := range r.snapshotNodes() {
		if n == exclude || n.isDown() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		st, err := n.c.Status(pctx, id)
		cancel()
		if err == nil && st.State == "done" && st.Result != nil {
			sp.SetAttr("hit", "true")
			sp.SetAttr("peer", n.name)
			return st.Result
		}
	}
	sp.SetAttr("hit", "false")
	return nil
}

// ---- HTTP surface ----

// Handler is the router's client-facing API: the /v1/jobs surface of a
// single shard, plus cluster status.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleStatus)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /v1/queues", r.handleQueues)
	mux.HandleFunc("GET /v1/trace/{id}", r.handleTrace)
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, _ *http.Request) {
		jobs.WriteJSON(w, http.StatusOK, map[string][]string{"workloads": workloads.Names()})
	})
	return mux
}

// Ownership ack headers. Every submit the router forwards is stamped
// with the keyspace it hashed to, the router's current epoch for that
// keyspace, and which backend actually served it — the observable the
// nemesis suite groups by (keyspace, epoch) to assert at most one
// writer ever acked in any epoch. The names are spelled in the
// canonical form net/http puts on the wire.
const (
	KeyspaceHeader = "X-Regvd-Keyspace"
	EpochHeader    = "X-Regvd-Epoch"
	ServedByHeader = "X-Regvd-Served-By"
)

// stampOwnership writes the ownership ack headers for a forwarded
// submit. Must run before the response body.
func (r *Router) stampOwnership(w http.ResponseWriter, owner, target *node) {
	w.Header().Set(KeyspaceHeader, owner.name)
	w.Header().Set(EpochHeader, strconv.FormatUint(r.keyspaceEpoch(owner.name), 10))
	w.Header().Set(ServedByHeader, target.name)
}

// forward is the one forward-and-reroute step behind submit and
// status. It routes id and hands the backend to send, which makes one
// forward (the client's whole retry budget) and writes the response
// when the shard answers it with success; failover reports that the
// backend is not the ring owner. Every failure is answered here, the
// same way for both: a shard's typed refusal is relayed verbatim,
// Retry-After included; a cancelled caller gets 408; a backend that
// never answered is marked down and the request rerouted once, after
// which the answer is 502, or the all-down 503.
func (r *Router) forward(ctx context.Context, w http.ResponseWriter, span *obs.Span, id string,
	send func(target, owner *node, failover bool) error) {
	target, owner, err := r.route(id)
	if err != nil {
		span.SetError(err)
		r.writeAllDown(w)
		return
	}
	failover := target != owner
	for hop := 0; ; hop++ {
		err := send(target, owner, failover)
		if err == nil {
			return
		}
		var apiErr *jobs.APIError
		if errors.As(err, &apiErr) {
			// The shard answered: its verdict (and Retry-After) stands.
			span.SetError(err)
			r.writeAPIError(w, apiErr)
			return
		}
		if ctx.Err() != nil {
			span.SetError(ctx.Err())
			jobs.WriteError(w, http.StatusRequestTimeout, "request cancelled: %v", ctx.Err())
			return
		}
		// The shard did not answer through the whole retry budget:
		// declare it down and reroute once.
		r.noteRequestFailure(target)
		if hop > 0 {
			span.SetError(err)
			jobs.WriteError(w, http.StatusBadGateway, "shard %s unreachable: %v", target.name, err)
			return
		}
		r.log.WarnContext(ctx, "rerouting off unreachable shard", "shard", target.name, "err", err)
		next, _, err := r.route(id)
		if err != nil || next == target {
			span.SetError(errAllDown)
			r.writeAllDown(w)
			return
		}
		target, failover = next, true
	}
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	job, body, ok := jobs.ReadJobBody(w, req)
	defer body.Release()
	if !ok {
		return
	}
	id := job.Key()
	r.submitted.Add(1)

	// Join the caller's trace (or mint one) and echo it on the response
	// so the caller can fetch the stitched cross-shard trace afterwards.
	// The context carries the span downstream: the forward frame carries
	// its trace header, so the owning shard's spans land in the same
	// trace.
	ctx := obs.ExtractHTTP(req.Context(), req.Header)
	ctx = obs.WithJobID(obs.WithTenant(ctx, job.Tenant), id)
	ctx, span := r.tracer.Start(ctx, "router.submit")
	defer span.End()
	if v := span.HeaderValue(); v != "" {
		w.Header().Set(obs.TraceHeader, v)
	}

	if res, ok := r.cache.Get(id); ok {
		r.cacheHits.Add(1)
		span.SetAttr("outcome", "router-cache")
		respondResult(w, job.Async, id, res, job.Tenant)
		return
	}

	r.forward(ctx, w, span, id, func(target, owner *node, failover bool) error {
		if failover {
			if res := r.peerLookup(ctx, id, nil); res != nil {
				r.peerHits.Add(1)
				span.SetAttr("outcome", "peer-hit")
				respondResult(w, job.Async, id, r.cachePutResult(id, res), job.Tenant)
				return nil
			}
		}
		fctx, fsp := r.tracer.Start(ctx, "router.forward")
		fsp.SetAttr("shard", target.name)
		// The answer is relayed as it came: a sync one is the result
		// encoding, an async one the job's status record.
		raw, err := target.submit(fctx, job.Async, job.Tenant, body.Bytes())
		var st jobs.JobStatus
		if err == nil && job.Async {
			if err = json.Unmarshal(raw, &st); err == nil && st.ID == "" {
				err = errors.New("async submission returned no job ID")
			}
			if err != nil {
				err = fmt.Errorf("cluster: decode async answer: %w", err)
			}
		}
		fsp.SetError(err)
		fsp.End()
		if err != nil {
			return err
		}
		target.routed.Add(1)
		span.SetAttr("outcome", "forwarded")
		r.stampOwnership(w, owner, target)
		if !job.Async {
			r.cachePut(id, raw)
			jobs.WriteRaw(w, http.StatusOK, raw)
			return nil
		}
		if st.State == "done" && st.Result != nil {
			r.cachePutResult(id, st.Result)
		}
		jobs.WriteRaw(w, http.StatusAccepted, raw)
		return nil
	})
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	ctx := obs.ExtractHTTP(req.Context(), req.Header)
	ctx = obs.WithJobID(ctx, id)
	ctx, span := r.tracer.Start(ctx, "router.status")
	defer span.End()
	if v := span.HeaderValue(); v != "" {
		w.Header().Set(obs.TraceHeader, v)
	}
	if res, ok := r.cache.Get(id); ok {
		r.cacheHits.Add(1)
		span.SetAttr("outcome", "router-cache")
		jobs.WriteDoneStatus(w, http.StatusOK, id, res)
		return
	}
	r.forward(ctx, w, span, id, func(target, _ *node, _ bool) error {
		st, err := target.c.Status(ctx, id)
		if err != nil {
			// On a 404 the target may not own the job's history (a
			// failover landed it elsewhere, or it finished on a peer
			// before the reshard). Ask around before echoing it.
			var apiErr *jobs.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
				return err
			}
			res := r.peerLookup(ctx, id, target)
			if res == nil {
				return err
			}
			r.peerHits.Add(1)
			st = jobs.JobStatus{ID: id, State: "done", Result: res}
		}
		if st.State == "done" && st.Result != nil {
			r.cachePutResult(id, st.Result)
		}
		jobs.WriteJSON(w, http.StatusOK, st)
		return nil
	})
}

// handleHealthz aggregates shard health: ok with every ring shard up,
// degraded (still 200 — the service is serving) while some are down,
// 503 when none are reachable.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var downNames []string
	for _, name := range r.ringNames {
		r.mu.Lock()
		n := r.nodes[name]
		r.mu.Unlock()
		if n.isDown() {
			downNames = append(downNames, name)
		}
	}
	switch {
	case len(downNames) == 0:
		jobs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case len(downNames) < len(r.ringNames):
		jobs.WriteJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": fmt.Sprintf("%d/%d shards down: %s (failing over to standbys)", len(downNames), len(r.ringNames), strings.Join(downNames, ", ")),
		})
	default:
		jobs.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "down",
			"reason": "every shard is unreachable",
		})
	}
}

// RouterShardStatus is one backend's row in the router's /v1/cluster
// report.
type RouterShardStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	InRing     bool   `json:"in_ring"`
	Healthy    bool   `json:"healthy"`
	Standby    string `json:"standby,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	Routed     uint64 `json:"routed"`
	FailedOver uint64 `json:"failed_over"`
	Replayed   uint64 `json:"replayed"`
}

// RouterStatus is the router's GET /v1/cluster body.
type RouterStatus struct {
	Role      string              `json:"role"`
	Shards    []RouterShardStatus `json:"shards"`
	Submitted uint64              `json:"submitted"`
	CacheHits uint64              `json:"cache_hits"`
	PeerHits  uint64              `json:"peer_hits"`
	Failovers uint64              `json:"failovers"` // the rows' FailedOver, summed
	UptimeSec float64             `json:"uptime_sec"`
}

func (r *Router) status() RouterStatus {
	st := RouterStatus{
		Role:      "router",
		Submitted: r.submitted.Load(),
		CacheHits: r.cacheHits.Load(),
		PeerHits:  r.peerHits.Load(),
		UptimeSec: time.Since(r.started).Seconds(),
	}
	for _, n := range r.snapshotNodes() {
		n.mu.Lock()
		row := RouterShardStatus{
			Name:       n.name,
			URL:        n.c.Base(),
			InRing:     n.inRing,
			Healthy:    !n.down && n.everProbed,
			Standby:    n.standbyName,
			Routed:     n.routed.Load(),
			FailedOver: n.failedOver.Load(),
			Replayed:   n.replayed.Load(),
		}
		n.mu.Unlock()
		if n.inRing {
			row.Epoch = r.keyspaceEpoch(n.name)
		}
		st.Failovers += row.FailedOver
		st.Shards = append(st.Shards, row)
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Name < st.Shards[j].Name })
	return st
}

func (r *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	jobs.WriteJSON(w, http.StatusOK, r.status())
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(r.promMetrics(req.Context()))
		return
	}
	jobs.WriteJSON(w, http.StatusOK, map[string]any{"cluster": r.status()})
}

// promMetrics renders the cluster-wide Prometheus exposition: the
// router's own families first, then every reachable shard's snapshot
// under a shard="name" label. Shard snapshots come from their JSON
// /metrics bodies, so bucket counts (the aggregatable latency signal)
// survive the hop; unreachable shards are simply absent from the
// scrape, which is itself a signal (regvd_router_shard_up flags them).
//
// The router's span histograms use a separate family name
// (regvd_router_span_duration_seconds) from the shards'
// regvd_span_duration_seconds: the exposition format requires every
// series of one family to be consecutive, and the two sets are
// rendered by different writers.
func (r *Router) promMetrics(ctx context.Context) []byte {
	st := r.status()
	var w obs.PromWriter
	w.Counter("regvd_router_submitted_total", "Jobs accepted by the router.", float64(st.Submitted))
	w.Counter("regvd_router_cache_hits_total", "Submissions answered from the router's result cache.", float64(st.CacheHits))
	w.Counter("regvd_router_peer_hits_total", "Results recovered from a peer's cache/disk tier on the failover path.", float64(st.PeerHits))
	w.Counter("regvd_router_failovers_total", "Requests routed away from their ring owner.", float64(st.Failovers))
	w.Gauge("regvd_router_uptime_seconds", "Seconds since the router started.", st.UptimeSec)

	shardLabel := func(name string) []obs.Label { return []obs.Label{{Name: "shard", Value: name}} }
	for _, row := range st.Shards {
		up := 0.0
		if row.Healthy {
			up = 1
		}
		w.Gauge("regvd_router_shard_up", "1 while the backend answers health probes.", up, shardLabel(row.Name)...)
	}
	for _, row := range st.Shards {
		w.Counter("regvd_router_shard_routed_total", "Requests forwarded to this backend.", float64(row.Routed), shardLabel(row.Name)...)
	}
	for _, row := range st.Shards {
		w.Counter("regvd_router_shard_failed_over_total", "Requests routed away from this owner while it was down.", float64(row.FailedOver), shardLabel(row.Name)...)
	}
	for _, row := range st.Shards {
		w.Counter("regvd_router_shard_replayed_total", "Jobs a standby resumed on this owner's behalf.", float64(row.Replayed), shardLabel(row.Name)...)
	}

	hists := r.tracer.Histograms()
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.Histogram("regvd_router_span_duration_seconds", "Router-side span durations by span name, in seconds.",
			hists[name], obs.Label{Name: "span", Value: name})
	}

	// Append every reachable shard's families, shard-labelled. Sorted by
	// name so the exposition is stable across scrapes.
	var shards []jobs.PromShard
	fanOut(ctx, r, "/metrics", func(n *node, m jobs.MetricsSnapshot) {
		shards = append(shards, jobs.PromShard{Labels: shardLabel(n.name), M: m})
	})
	sort.Slice(shards, func(i, j int) bool {
		return shards[i].Labels[0].Value < shards[j].Labels[0].Value
	})
	if len(shards) > 0 {
		jobs.WriteProm(&w, shards...)
	}
	return w.Bytes()
}

// fanOut GETs path from every backend not marked down, one attempt
// each under probeTimeout, and hands keep the decoded answer of each
// one that answered with success. A silent or refusing backend is
// simply absent from the aggregate.
func fanOut[T any](ctx context.Context, r *Router, path string, keep func(n *node, v T)) {
	for _, n := range r.snapshotNodes() {
		if n.isDown() {
			continue
		}
		var v T
		cctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := n.c.Get(cctx, path, &v)
		cancel()
		if err == nil {
			keep(n, v)
		}
	}
}

// handleTrace stitches one trace across the cluster: the router's own
// retained spans plus every reachable backend's, merged and sorted.
// This is how a single submit becomes one timeline — router.submit and
// its forward hops interleaved with the owning shard's http.submit,
// queue.wait and sim.run. A malformed ID names no trace on any node, so
// it is answered 404 without asking the shards.
func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !obs.ValidTraceID(id) {
		jobs.WriteTrace(w, req, id, nil)
		return
	}
	spans := r.tracer.Trace(id)
	fanOut(req.Context(), r, "/v1/trace/"+id, func(_ *node, tr jobs.TraceResponse) {
		spans = append(spans, tr.Spans...)
	})
	obs.SortSpans(spans)
	jobs.WriteTrace(w, req, id, spans)
}

// handleQueues aggregates the per-tenant scheduler state of every
// reachable shard, keyed by shard name.
func (r *Router) handleQueues(w http.ResponseWriter, req *http.Request) {
	out := map[string]json.RawMessage{}
	fanOut(req.Context(), r, "/v1/queues", func(n *node, q json.RawMessage) {
		out[n.name] = q
	})
	jobs.WriteJSON(w, http.StatusOK, out)
}

// respondResult answers a submit from a cached, tenantless result
// encoding, stamped with the requester's tenant on this response only,
// preserving the sync/async response shapes.
func respondResult(w http.ResponseWriter, async bool, id string, res []byte, tenant string) {
	res = jobs.ResultWithTenant(res, tenant)
	if async {
		jobs.WriteDoneStatus(w, http.StatusAccepted, id, res)
		return
	}
	jobs.WriteRaw(w, http.StatusOK, res)
}

// writeAPIError relays a shard's typed refusal verbatim, status,
// Retry-After and all — the router must not weaken the backoff
// contract between shard and client.
func (r *Router) writeAPIError(w http.ResponseWriter, apiErr *jobs.APIError) {
	status := apiErr.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	if apiErr.RetryAfterMS > 0 {
		secs := int(math.Ceil(float64(apiErr.RetryAfterMS) / 1000))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	jobs.WriteJSON(w, status, apiErr)
}

func (r *Router) writeAllDown(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	jobs.WriteJSON(w, http.StatusServiceUnavailable, &jobs.APIError{
		Message: errAllDown.Error(),
		Kind:    "closed",
		Status:  http.StatusServiceUnavailable,
	})
}
