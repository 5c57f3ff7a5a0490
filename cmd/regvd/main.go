// Command regvd is the simulation job service: it serves the
// internal/jobs worker pool over HTTP/JSON so register-file
// configuration sweeps can be submitted, deduplicated and cached
// centrally instead of re-run per invocation.
//
// Usage:
//
//	regvd [-addr host:port] [-j workers] [-drain d] [-data-dir dir]
//	      [-checkpoint-every n] [-tenants spec] [-strict-tenants]
//	      [-faults spec] [-fault-seed n] [-nemesis]
//	      [-log-format text|json] [-debug-addr host:port]
//	      [-shard name] [-peers name=url,...] [-standby name] [-cluster]
//
// Endpoints:
//
//	POST /v1/jobs       submit a job (sync; {"async":true} for async)
//	GET  /v1/jobs/{id}  status/result of a job
//	GET  /v1/queues     per-tenant scheduler state and counters
//	GET  /healthz       liveness ("ok", or "degraded" while shedding)
//	GET  /metrics       counters (JSON; ?format=prom for Prometheus text)
//	GET  /v1/trace/{id} one request's spans (?format=chrome for chrome://tracing)
//	GET  /v1/workloads  built-in workload names
//	GET  /v1/cluster    cluster role and replication/routing state
//
// Observability: every request carries a trace (join with the
// X-Regvd-Trace header, read the ID back from the response) whose
// spans — admission, queue wait, simulation, checkpoint writes, and in
// cluster mode the router hops — are served by GET /v1/trace/{id};
// through the router the trace is stitched across every shard it
// touched. /metrics?format=prom is a Prometheus scrape target (the
// router aggregates all shards, shard-labelled). Logs are structured
// (-log-format json for shipping) and stamped with trace_id, tenant,
// job and shard. -debug-addr serves net/http/pprof on a separate,
// operator-chosen listener.
//
// Example:
//
//	regvd -addr 127.0.0.1:8077 &
//	curl -s localhost:8077/v1/jobs -d '{"workload":"MatrixMul","physregs":512,"gating":true}'
//
// Jobs still accept "gpu_par", which once set the whole-device
// engine's compute-phase worker count, and ignore it: the engine steps
// the 16 SMs on one goroutine, and the service runs jobs side by side
// instead. It keeps its validation and stays out of the content hash,
// so a job that sends it gets the status and ID it always got.
//
// Failure behavior: when 768 tasks are queued (jobs.ShedDepth) the
// daemon refuses new unique work with 429 + Retry-After instead of
// letting latency grow without bound (cache hits and dedup joins still
// serve), and /healthz reports "degraded". Worker panics and simulator
// invariant violations are contained per job — the daemon keeps
// serving. -faults arms deterministic fault injection (chaos drills
// only; see internal/faultinject.ParseSpec for the site:kind:every
// grammar).
//
// Scheduling: jobs are dispatched by a multi-tenant fair-share
// scheduler (stride scheduling over the -tenants weights; priorities
// order jobs within a tenant's queue). Requests name their tenant in
// the job body ("tenant") or the X-Regvd-Tenant header; tenantless
// requests ride the shared "default" queue, so pre-tenancy clients
// keep working unchanged. -tenants takes comma-separated
// name:weight[:maxQueued[:maxRunning[:maxPriority]]] entries ("*" for
// the config unknown tenants get); -strict-tenants rejects tenants
// outside that set with 403. With -data-dir armed, a higher-priority
// arrival checkpoint-preempts the lowest-priority running job — the
// victim snapshots, re-queues, and later resumes byte-identically from
// its checkpoint. GET /v1/queues shows every queue's weight, quotas,
// depth and per-tenant counters.
//
// Integrity: every result and checkpoint is written inside a
// checksummed envelope (internal/integrity); corrupt files read as
// misses, never as wrong answers. The read that finds a corrupt result
// heals it: a submit re-runs the job, and a status lookup by ID re-runs
// it as an async job from the spec sealed in the file, once that spec
// hashes back to the ID. -nemesis (chaos drills only) adds
// POST /v1/faults/partition, which black-holes this process's outbound
// traffic to named host:port targets so partition behavior — fencing,
// resync, failover — can be driven from a test harness.
//
// Durability: -data-dir arms the write-ahead journal, on-disk result
// store and checkpoint store (internal/jobs/store). Accepted jobs are
// fsynced to the journal before they are acknowledged; on startup the
// journal is replayed — finished jobs serve from disk, unfinished jobs
// re-enqueue and resume from their latest checkpoint. A graceful
// shutdown (SIGINT/SIGTERM) interrupts in-flight simulations inside
// the -drain window so each writes a final checkpoint; even a SIGKILL
// loses nothing accepted (see `make recovery`). Without -data-dir the
// daemon is fully in-memory, as before.
//
// Clustering (internal/cluster): `-cluster -peers s1=url,s2=url,...`
// runs the daemon as a coordinator/router instead of a shard — one
// /v1/jobs surface consistent-hash-routed over the named shards, with
// health probing and automatic failover. A shard daemon names itself
// with -shard and, with `-standby <peer>` (the peer resolved through
// -peers), ships every journal frame to that peer so its accepted jobs
// survive its own death: the router tells the standby to adopt the
// dead shard's journal, pending jobs re-enqueue there and re-run from
// cycle 0, and results come back byte-identical by the determinism
// contract. The router's /healthz aggregates shard health
// ("ok" / "degraded" with shards down / 503 with none reachable);
// GET /v1/cluster reports the topology from either role. See the
// README's cluster operations section for a 3-shard quickstart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"strconv"
	"strings"

	"path/filepath"

	"regvirt/internal/cluster"
	"regvirt/internal/faultinject"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/sched"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// config is everything the daemon needs to boot, separated from flag
// parsing so tests can construct daemons directly.
type config struct {
	addr      string
	workers   int
	drain     time.Duration
	dataDir   string
	ckptEvery uint64
	tenants   string
	strict    bool
	faults    string
	faultSeed int64
	nemesis   bool

	// Observability flags.
	logFormat string // "text" (human key=value) or "json" (machine-shipped)
	debugAddr string // pprof listener, separate from the service port

	// Cluster role flags (see internal/cluster).
	shard       string // this shard's name in the cluster
	peers       string // name=url address book: ring members (-cluster) or ship targets (-standby)
	standby     string // peer name to ship the journal to (needs -data-dir and -peers)
	clusterMode bool   // run as the coordinator/router instead of a shard
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("regvd", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8077", "listen address")
	fs.IntVar(&cfg.workers, "j", runtime.NumCPU(), "simulation worker goroutines")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-shutdown drain window for in-flight requests")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: journal accepted jobs, persist results, checkpoint and resume across restarts (empty = in-memory only)")
	fs.Uint64Var(&cfg.ckptEvery, "checkpoint-every", 100_000, "simulated cycles between durable checkpoints of in-flight jobs (needs -data-dir; 0 = only cancellation checkpoints)")
	fs.StringVar(&cfg.tenants, "tenants", "", "tenant table, comma-separated name:weight[:maxQueued[:maxRunning[:maxPriority]]] (\"*\" = config for unknown tenants)")
	fs.BoolVar(&cfg.strict, "strict-tenants", false, "reject tenants outside -tenants with 403 (the default queue always admits)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "structured log format: text (key=value) or json")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (separate listener; empty = off)")
	fs.StringVar(&cfg.faults, "faults", "", "fault injection spec, comma-separated site:kind:every[:arg] (chaos drills only)")
	fs.Int64Var(&cfg.faultSeed, "fault-seed", 0, "seed for fault-injection phase offsets")
	fs.BoolVar(&cfg.nemesis, "nemesis", false, "arm the nemesis surface: POST /v1/faults/partition black-holes outbound traffic to named hosts (chaos drills only)")
	fs.StringVar(&cfg.shard, "shard", "regvd", "this shard's name in the cluster")
	fs.StringVar(&cfg.peers, "peers", "", "peer address book, comma-separated name=url: the ring shards under -cluster, the ship-target book under -standby")
	fs.StringVar(&cfg.standby, "standby", "", "peer name (from -peers) to ship the journal to for warm-standby failover (needs -data-dir)")
	fs.BoolVar(&cfg.clusterMode, "cluster", false, "run as the cluster coordinator/router over -peers instead of serving jobs directly")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		err := fmt.Errorf("regvd: -log-format %q (want text or json)", cfg.logFormat)
		fmt.Fprintln(fs.Output(), err)
		return config{}, err
	}
	if err := cfg.validateCluster(); err != nil {
		fmt.Fprintln(fs.Output(), err)
		return config{}, err
	}
	return cfg, nil
}

// validateCluster cross-checks the cluster flags: the grammar errors a
// misconfigured node should die on at boot, not at first failover.
func (cfg config) validateCluster() error {
	if cfg.clusterMode {
		if cfg.peers == "" {
			return fmt.Errorf("regvd: -cluster requires -peers naming the ring shards")
		}
		if cfg.standby != "" {
			return fmt.Errorf("regvd: -standby is a shard flag; the -cluster router does not ship a journal")
		}
		if cfg.dataDir != "" {
			return fmt.Errorf("regvd: -data-dir is a shard flag; the -cluster router keeps no journal")
		}
	}
	if cfg.standby != "" {
		if cfg.dataDir == "" {
			return fmt.Errorf("regvd: -standby needs -data-dir (there is no journal to ship without one)")
		}
		if cfg.shard == "" {
			return fmt.Errorf("regvd: -standby needs a non-empty -shard name")
		}
		peers, err := parsePeers(cfg.peers)
		if err != nil {
			return err
		}
		if cfg.standby == cfg.shard {
			return fmt.Errorf("regvd: -standby %q is this shard itself", cfg.standby)
		}
		if _, ok := peerURL(peers, cfg.standby); !ok {
			return fmt.Errorf("regvd: -standby %q is not in -peers", cfg.standby)
		}
	}
	if cfg.peers != "" {
		if _, err := parsePeers(cfg.peers); err != nil {
			return err
		}
	}
	return nil
}

// parsePeers parses the -peers grammar: comma-separated name=url
// entries, names unique and non-empty, URLs http(s).
func parsePeers(spec string) ([]cluster.ShardInfo, error) {
	var out []cluster.ShardInfo
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, ok := strings.Cut(entry, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("regvd: -peers entry %q: want name=url", entry)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("regvd: -peers entry %q: URL must start with http:// or https://", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("regvd: -peers names %q twice", name)
		}
		seen[name] = true
		out = append(out, cluster.ShardInfo{Name: name, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("regvd: -peers spec %q names no peers", spec)
	}
	return out, nil
}

func peerURL(peers []cluster.ShardInfo, name string) (string, bool) {
	for _, p := range peers {
		if p.Name == name {
			return p.URL, true
		}
	}
	return "", false
}

// schedConfig assembles the scheduler settings from the parsed flags.
func (cfg config) schedConfig() (sched.Config, error) {
	tenants, def, err := parseTenantsSpec(cfg.tenants)
	if err != nil {
		return sched.Config{}, fmt.Errorf("regvd: -tenants: %w", err)
	}
	return sched.Config{Tenants: tenants, Default: def, Strict: cfg.strict}, nil
}

// parseTenantsSpec parses the -tenants grammar: comma-separated
// entries of name:weight[:maxQueued[:maxRunning[:maxPriority]]], with
// "*" naming the config applied to tenants absent from the table.
// Omitted numeric fields mean "no cap"; an empty spec returns an empty
// table (every tenant gets weight 1, no quotas).
func parseTenantsSpec(spec string) (map[string]sched.TenantConfig, sched.TenantConfig, error) {
	tenants := map[string]sched.TenantConfig{}
	var def sched.TenantConfig
	if strings.TrimSpace(spec) == "" {
		return tenants, def, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 5 {
			return nil, def, fmt.Errorf("entry %q: want name:weight[:maxQueued[:maxRunning[:maxPriority]]]", entry)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, def, fmt.Errorf("entry %q: empty tenant name", entry)
		}
		nums := make([]int, 4) // weight, maxQueued, maxRunning, maxPriority
		for i, p := range parts[1:] {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, def, fmt.Errorf("entry %q: field %d: %v", entry, i+2, err)
			}
			if v < 0 {
				return nil, def, fmt.Errorf("entry %q: field %d: negative value %d", entry, i+2, v)
			}
			nums[i] = v
		}
		if nums[0] < 1 {
			return nil, def, fmt.Errorf("entry %q: weight must be >= 1", entry)
		}
		tc := sched.TenantConfig{Weight: nums[0], MaxQueued: nums[1], MaxRunning: nums[2], MaxPriority: nums[3]}
		if name == "*" {
			def = tc
			continue
		}
		if _, dup := tenants[name]; dup {
			return nil, def, fmt.Errorf("tenant %q configured twice", name)
		}
		tenants[name] = tc
	}
	return tenants, def, nil
}

// daemon is the assembled service: listener, pool, HTTP server and,
// with -data-dir, the durability store.
type daemon struct {
	cfg   config
	ln    net.Listener
	pool  *jobs.Pool // nil in router mode
	srv   *http.Server
	store *store.Store
	log   *slog.Logger

	// Cluster wiring (any may be nil depending on role/flags).
	standby *store.StandbyStore // shipped copies received from peers
	shipper *cluster.Shipper    // our journal's outbound replication
	router  *cluster.Router     // router mode only

	partitions *faultinject.PartitionSet // -nemesis outbound partition set, nil when off
	debugSrv   *http.Server              // -debug-addr pprof listener, nil when off
}

// nemesisHandler mounts the chaos-drill fault surface in front of
// next: POST /v1/faults/partition adjusts which hosts this process's
// outbound traffic black-holes. Only wired under -nemesis.
func nemesisHandler(parts *faultinject.PartitionSet, log *slog.Logger, next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/faults/partition", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Block   []string `json:"block"`
			Unblock []string `json:"unblock"`
			Clear   bool     `json:"clear"`
		}
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
		if err := jobs.ReadBody(w, r, func() error { return dec.Decode(&req) }); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Clear {
			parts.Clear()
		}
		parts.Block(req.Block...)
		parts.Unblock(req.Unblock...)
		blocked := parts.Hosts()
		log.Warn("partition set updated", "blocked", blocked)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"blocked": blocked})
	})
	mux.Handle("/", next)
	return mux
}

// armDebug binds the -debug-addr pprof listener. It is a separate
// listener on purpose: profiling endpoints leak internals (heap
// contents, symbol names), so they bind to an operator-chosen address
// — typically loopback — instead of riding the service port.
func (d *daemon) armDebug() error {
	if d.cfg.debugAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", d.cfg.debugAddr)
	if err != nil {
		return fmt.Errorf("regvd: -debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.debugSrv = newHTTPServer(mux)
	go d.debugSrv.Serve(ln)
	d.log.Info("pprof debug listener armed", "addr", ln.Addr().String())
	return nil
}

// Connection timeouts of every listener regvd serves. A client that
// stalls before finishing its request headers, or leaves a keep-alive
// connection idle, is disconnected instead of holding a goroutine and
// a file descriptor indefinitely; one that stalls mid-body is cut off
// by the handlers' body deadline (jobs.BodyReadTimeout). There is
// deliberately no write or whole-request timeout: a sync submit's
// response waits for its simulation, which may take far longer.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// headerTimeout is the header timeout newHTTPServer applies:
// readHeaderTimeout, which only tests shorten.
var headerTimeout = readHeaderTimeout

// newHTTPServer is an http.Server for h with regvd's connection
// timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// newDaemon binds the listener and builds the pool and server (or, in
// router mode, the cluster router). The caller owns shutdown via
// serve's stop channel.
func newDaemon(cfg config) (*daemon, error) {
	if cfg.clusterMode {
		return newRouterDaemon(cfg)
	}
	logger := obs.NewLogger(os.Stderr, cfg.logFormat, slog.String("shard", cfg.shard))
	var inj *faultinject.Injector
	if cfg.faults != "" {
		rules, err := faultinject.ParseSpec(cfg.faults)
		if err != nil {
			return nil, fmt.Errorf("regvd: -faults: %w", err)
		}
		inj = faultinject.New(cfg.faultSeed, rules...)
		logger.Warn("CHAOS MODE: fault injection armed — not for production traffic", "spec", cfg.faults, "seed", cfg.faultSeed)
	}
	var (
		st        *store.Store
		recovered []jobs.RecoveredJob
	)
	if cfg.dataDir != "" {
		var err error
		st, recovered, err = store.Open(cfg.dataDir)
		if err != nil {
			return nil, fmt.Errorf("regvd: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, fmt.Errorf("regvd: %w", err)
	}
	sc, err := cfg.schedConfig()
	if err != nil {
		if st != nil {
			st.Close()
		}
		ln.Close()
		return nil, err
	}
	opts := jobs.Options{
		Workers: cfg.workers,
		Sched:   sc,
		Faults:  inj,
		Tracer:  obs.NewTracer(cfg.shard),
		Logger:  logger,
	}
	if st != nil {
		opts.Store = st
		opts.CheckpointEvery = cfg.ckptEvery
	}
	pool := jobs.NewPoolWith(opts)
	if st != nil {
		resumed := pool.Restore(recovered)
		if len(recovered) > 0 {
			logger.Info("journal replayed", "recovered", len(recovered), "resumed", resumed)
		}
	}

	// Cluster shard wiring: a disked shard can always receive peers'
	// shipments (standby store under <data-dir>/standby), and with
	// -standby it ships its own journal out. The shipper starts after
	// Restore so the initial resync covers recovered state too.
	var (
		standby *store.StandbyStore
		shipper *cluster.Shipper
	)
	if st != nil {
		standby, err = store.OpenStandby(filepath.Join(cfg.dataDir, "standby"))
		if err != nil {
			pool.Close()
			st.Close()
			ln.Close()
			return nil, fmt.Errorf("regvd: %w", err)
		}
	}
	var parts *faultinject.PartitionSet
	if cfg.nemesis {
		parts = faultinject.NewPartitionSet()
		logger.Warn("NEMESIS MODE: partition fault surface armed — not for production traffic")
	}
	var standbyURL string
	if cfg.standby != "" {
		peers, perr := parsePeers(cfg.peers)
		if perr != nil {
			pool.Close()
			standby.Close()
			st.Close()
			ln.Close()
			return nil, perr
		}
		standbyURL, _ = peerURL(peers, cfg.standby) // presence validated at parse time
		shipper = cluster.NewShipper(cfg.shard, cfg.standby, standbyURL, st)
		shipper.SetLogger(logger)
		if parts != nil {
			shipper.SetTransport(parts.Transport(nil))
		}
		shipper.Start()
		logger.Info("shipping journal to standby", "standby", cfg.standby, "url", standbyURL)
	}

	shardSrv := cluster.NewShardServer(cfg.shard, pool, nil, standby, shipper)
	shardSrv.SetLogger(logger)
	handler := shardSrv.Handler(jobs.NewServer(pool).Handler())
	if parts != nil {
		handler = nemesisHandler(parts, logger, handler)
	}
	d := &daemon{
		cfg:        cfg,
		ln:         ln,
		pool:       pool,
		srv:        newHTTPServer(handler),
		store:      st,
		log:        logger,
		standby:    standby,
		shipper:    shipper,
		partitions: parts,
	}
	// A peer's ship stream is never idle, so Shutdown would wait out
	// the drain window for it; end inbound streams as the drain begins.
	d.srv.RegisterOnShutdown(shardSrv.EndShipStreams)
	if err := d.armDebug(); err != nil {
		d.closeBackends()
		ln.Close()
		return nil, err
	}
	return d, nil
}

// newRouterDaemon assembles the -cluster coordinator: no pool, no
// store — just the consistent-hash router over the -peers shards.
func newRouterDaemon(cfg config) (*daemon, error) {
	logger := obs.NewLogger(os.Stderr, cfg.logFormat, slog.String("role", "router"))
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, fmt.Errorf("regvd: %w", err)
	}
	var parts *faultinject.PartitionSet
	ropts := cluster.RouterOptions{
		Tracer: obs.NewTracer("router"),
		Logger: logger,
	}
	if cfg.nemesis {
		parts = faultinject.NewPartitionSet()
		ropts.Transport = parts.Transport(nil)
		logger.Warn("NEMESIS MODE: partition fault surface armed — not for production traffic")
	}
	router, err := cluster.NewRouter(peers, ropts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	handler := http.Handler(router.Handler())
	if parts != nil {
		handler = nemesisHandler(parts, logger, handler)
	}
	d := &daemon{
		cfg:        cfg,
		ln:         ln,
		srv:        newHTTPServer(handler),
		log:        logger,
		router:     router,
		partitions: parts,
	}
	if err := d.armDebug(); err != nil {
		router.Close()
		ln.Close()
		return nil, err
	}
	return d, nil
}

// addr is the bound listen address (useful with ":0" in tests).
func (d *daemon) addr() string { return d.ln.Addr().String() }

// serve runs the HTTP server until a value arrives on stop, then
// drains: in-flight requests get the drain window to finish, new
// connections are refused, and only after Serve has fully returned is
// the pool closed — so no handler can race a submission against
// pool.Close.
func (d *daemon) serve(stop <-chan os.Signal) error {
	done := make(chan error, 1)
	go func() { done <- d.srv.Serve(d.ln) }()

	select {
	case err := <-done:
		// Serve failed before any shutdown was requested.
		d.closeBackends()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-stop:
	}

	d.log.Info("shutting down", "drain", d.cfg.drain)
	// Interrupt before draining: in-flight simulations abort onto a
	// cycle boundary and write their shutdown checkpoints inside the
	// drain window, instead of burning it simulating work a restart
	// would redo anyway.
	if d.pool != nil {
		d.pool.Interrupt()
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.drain)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		// Drain window expired with requests still in flight: cut them.
		d.log.Warn("drain window expired", "err", err)
		d.srv.Close()
	}
	<-done // Serve has returned; no handler is touching the pool.
	d.closeBackends()
	return nil
}

// closeBackends tears the daemon down in dependency order once no
// handler is running: pool first (drain checkpoints still journal and
// ship), then the shipper (final flush to the standby), then the
// stores, then the router's prober.
func (d *daemon) closeBackends() {
	if d.pool != nil {
		d.pool.Close()
	}
	if d.shipper != nil {
		d.shipper.Close()
	}
	if d.standby != nil {
		if err := d.standby.Close(); err != nil {
			d.log.Error("closing standby store", "err", err)
		}
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			d.log.Error("closing store", "err", err)
		}
	}
	if d.router != nil {
		d.router.Close()
	}
	if d.debugSrv != nil {
		d.debugSrv.Close()
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	d, err := newDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.clusterMode {
		d.log.Info("cluster router listening", "url", "http://"+d.addr(), "peers", cfg.peers)
	} else {
		d.log.Info("listening", "url", "http://"+d.addr(), "workers", cfg.workers)
	}

	// SIGINT/SIGTERM drain in-flight requests before exiting.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := d.serve(stop); err != nil {
		log.Fatalf("regvd: %v", err)
	}
}
