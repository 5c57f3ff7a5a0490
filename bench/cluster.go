package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"regvirt/internal/cluster"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
)

// nShards is the ring size every run boots: the README's three-shard
// quickstart, each shard shipping its journal to the next one.
const nShards = 3

// checkpointEvery is regvd's -checkpoint-every default.
const checkpointEvery = 100_000

func shardName(i int) string { return fmt.Sprintf("s%d", i) }

// shard is one in-process regvd shard assembled the way cmd/regvd
// assembles `-data-dir <dir> -standby <next>`: a durable store, a
// standby store for the previous shard's shipments, a pool with
// Workers = NumCPU, a shipper to the next shard, and the shard HTTP
// surface on a real loopback listener.
type shard struct {
	name   string
	st     *store.Store
	sb     *store.StandbyStore
	pool   *jobs.Pool
	ship   *cluster.Shipper
	tracer *obs.Tracer
	ln     net.Listener
	srv    *http.Server
	url    string
}

// benchCluster is three shards behind one cluster.Router, all served
// over loopback TCP so every hop is production HTTP.
type benchCluster struct {
	shards  []*shard
	router  *cluster.Router
	rtracer *obs.Tracer
	ln      net.Listener
	srv     *http.Server
	url     string
	serving sync.WaitGroup // one per http.Server.Serve goroutine
}

// discardLogger formats every log line the daemon would write and
// throws it away: the formatting cost stays in the measurement, the
// output does not.
func discardLogger(attr slog.Attr) *slog.Logger {
	return obs.NewLogger(io.Discard, "text", attr)
}

// bootCluster starts a cluster on the data dirs under dir (replaying
// whatever an earlier cluster left there) and returns once the router
// has probed every shard healthy and learned its standby. With traced
// false every tracer is nil, which is how obs.tracer_cost_ratio is
// measured; regvd itself always traces.
func bootCluster(dir string, traced bool, hc *http.Client) (c *benchCluster, err error) {
	c = &benchCluster{}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	for i := 0; i < nShards; i++ {
		s := &shard{name: shardName(i)}
		c.shards = append(c.shards, s)
		sdir := filepath.Join(dir, s.name)
		var recovered []jobs.RecoveredJob
		if s.st, recovered, err = store.Open(sdir); err != nil {
			return c, err
		}
		if s.sb, err = store.OpenStandby(filepath.Join(sdir, "standby")); err != nil {
			return c, err
		}
		if traced {
			s.tracer = obs.NewTracer(s.name)
		}
		s.pool = jobs.NewPoolWith(jobs.Options{
			Workers:         runtime.NumCPU(),
			Store:           s.st,
			CheckpointEvery: checkpointEvery,
			Tracer:          s.tracer,
			Logger:          discardLogger(slog.String("shard", s.name)),
		})
		s.pool.Restore(recovered)
		if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return c, err
		}
		s.url = "http://" + s.ln.Addr().String()
	}
	infos := make([]cluster.ShardInfo, 0, nShards)
	for i, s := range c.shards {
		next := c.shards[(i+1)%nShards]
		log := discardLogger(slog.String("shard", s.name))
		s.ship = cluster.NewShipper(s.name, next.name, next.url, s.st)
		s.ship.SetLogger(log)
		s.ship.Start()
		ss := cluster.NewShardServer(s.name, s.pool, s.st, s.sb, s.ship)
		ss.SetLogger(log)
		s.srv = &http.Server{Handler: ss.Handler(jobs.NewServer(s.pool).Handler())}
		c.serve(s.srv, s.ln)
		infos = append(infos, cluster.ShardInfo{Name: s.name, URL: s.url})
	}
	if traced {
		c.rtracer = obs.NewTracer("router")
	}
	if c.router, err = cluster.NewRouter(infos, cluster.RouterOptions{
		Tracer: c.rtracer,
		Logger: discardLogger(slog.String("role", "router")),
	}); err != nil {
		return c, err
	}
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return c, err
	}
	c.url = "http://" + c.ln.Addr().String()
	c.srv = &http.Server{Handler: c.router.Handler()}
	c.serve(c.srv, c.ln)
	return c, c.waitReady(hc)
}

func (c *benchCluster) serve(srv *http.Server, ln net.Listener) {
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

// waitReady polls GET /v1/cluster until every ring shard has been
// probed healthy and has reported its standby — the state a client
// would otherwise race with its first request.
func (c *benchCluster) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.status(hc)
		if err == nil && readyStatus(st) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after 10s (last status error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func readyStatus(st cluster.RouterStatus) bool {
	ready := 0
	for _, s := range st.Shards {
		if s.InRing && s.Healthy && s.Standby != "" {
			ready++
		}
	}
	return ready == nShards
}

// status reads the router's GET /v1/cluster report.
func (c *benchCluster) status(hc *http.Client) (cluster.RouterStatus, error) {
	var st cluster.RouterStatus
	resp, err := hc.Get(c.url + "/v1/cluster")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/cluster: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// chromeTrace fetches one request's trace from the router, stitched
// across every shard it touched, in Chrome trace_event format.
func (c *benchCluster) chromeTrace(ctx context.Context, hc *http.Client, traceID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/trace/"+traceID+"?format=chrome", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace/%s: HTTP %d: %s", traceID, resp.StatusCode, body)
	}
	return body, nil
}

// tracers returns every non-nil tracer: the router's, then each shard's.
func (c *benchCluster) tracers() []*obs.Tracer {
	var out []*obs.Tracer
	if c.rtracer != nil {
		out = append(out, c.rtracer)
	}
	for _, s := range c.shards {
		if s.tracer != nil {
			out = append(out, s.tracer)
		}
	}
	return out
}

// poolTotals sums the shards' pool counters.
func (c *benchCluster) poolTotals() jobs.MetricsSnapshot {
	var t jobs.MetricsSnapshot
	for _, s := range c.shards {
		m := s.pool.Metrics()
		t.Submitted += m.Submitted
		t.CacheHits += m.CacheHits
		t.DiskHits += m.DiskHits
	}
	return t
}

// close tears the cluster down in cmd/regvd's dependency order once no
// handler can run: listeners and servers, then the router's prober,
// pools (in-flight work drains into the stores), shippers (final
// flush), and the stores last. It tolerates a partially booted
// cluster and reports the stores' close errors.
func (c *benchCluster) close() error {
	for _, srv := range c.servers() {
		srv.Close()
	}
	for _, ln := range c.unservedListeners() {
		ln.Close()
	}
	c.serving.Wait()
	if c.router != nil {
		c.router.Close()
	}
	var errs []error
	for _, s := range c.shards {
		if s.pool != nil {
			s.pool.Close()
		}
	}
	for _, s := range c.shards {
		if s.ship != nil {
			s.ship.Close()
		}
	}
	for _, s := range c.shards {
		if s.sb != nil {
			errs = append(errs, s.sb.Close())
		}
		if s.st != nil {
			errs = append(errs, s.st.Close())
		}
	}
	return errors.Join(errs...)
}

func (c *benchCluster) servers() []*http.Server {
	var out []*http.Server
	if c.srv != nil {
		out = append(out, c.srv)
	}
	for _, s := range c.shards {
		if s.srv != nil {
			out = append(out, s.srv)
		}
	}
	return out
}

// unservedListeners are listeners bound before a boot failed, which no
// server owns yet.
func (c *benchCluster) unservedListeners() []net.Listener {
	var out []net.Listener
	if c.ln != nil && c.srv == nil {
		out = append(out, c.ln)
	}
	for _, s := range c.shards {
		if s.ln != nil && s.srv == nil {
			out = append(out, s.ln)
		}
	}
	return out
}
