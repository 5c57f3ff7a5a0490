package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"regvirt/internal/arch"
	"regvirt/internal/cluster"
	"regvirt/internal/compiler"
	"regvirt/internal/integrity"
	"regvirt/internal/isa"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/jobs/store"
	"regvirt/internal/obs"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// The traced run peels the layers: a prefix of the workload's sequence
// is timed, one request at a time, at successive public entry points,
// each on fresh instances set up the way the end-to-end run sets up
// (prefill, restart, warm-up):
//
//	1 client -> router         (the full cluster, traced; again untraced)
//	2 client -> owner shard    (the full cluster; the client picks the ring owner)
//	3 Pool.Submit with a store
//	4 Pool.Submit without a store
//	5 jobs.Execute
//	6 isa.Parse + compiler.Compile
//	7 sim.Run / sim.RunGPU
//
// A layer's cost is the median per-request difference between adjacent
// levels (see paired). On a workload whose requests hit a cache above
// level 5 (hits, most of mixed) the levels below the cache execute
// what the cache saved, so jobs.pool_ms goes negative there by the
// cost of that execution.

// traceRate sizes the traced run per second of --seconds: levels 1-4
// time the first upper requests of the sequence, levels 5-7 the first
// lower of those, each level taking under a tenth of --seconds on the
// baseline host. A level stops at a tenth of the run's backstop
// regardless.
var traceRate = map[string]struct{ upper, lower int }{
	wCold: {15, 15}, wHits: {600, 4}, wMixed: {100, 100}, wGPU: {5, 5},
}

// spanNames are the spans whose mean duration the traced run reports,
// read from the Histograms() of every tracer it constructs.
var spanNames = []string{"router.submit", "router.forward", "http.submit", "jobs.submit", "jobs.admit", "store.load", "journal.accept", "sim.run"}

// storeJobs is how many distinct executed jobs the store, integrity and
// replay probes write.
const storeJobs = 64

// benchTraceID is the trace the first routed request joins, so its
// stitched trace can be fetched and written next to the results.
const benchTraceID = "00000000000000000000000062656e63"

// executed is one level-5 execution, kept for the probes below it.
type executed struct {
	req request
	res *jobs.Result
}

func runLayers(ctx context.Context, cfg runConfig, in *inputs) (*report, error) {
	share := cfg.backstop() / 10
	// Request 0 is level 1's traced request; the timed prefix follows it.
	prefix := &inputs{table: in.table, seq: in.seq[1:], tenants: in.tenants}
	lower := min(len(prefix.seq), cfg.seconds*traceRate[cfg.workload].lower)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	r := &report{}
	tally := func(st loopStats) {
		r.attempted += st.attempted
		r.failed += st.failed
		r.mismatched += st.badIDs
	}

	l1, err := levelRouter(ctx, cfg, in, prefix, hc, true, share)
	if err != nil {
		return nil, err
	}
	tally(l1.st)
	// Levels 1-4 time the same requests in the same order, so paired
	// differences isolate a layer; levels 5-7 time the first lower.
	l1u, err := levelRouter(ctx, cfg, in, prefix, hc, false, share)
	if err != nil {
		return nil, err
	}
	tally(l1u.st)
	l2, err := levelShard(ctx, cfg, in, prefix, hc, share)
	if err != nil {
		return nil, err
	}
	tally(l2.st)
	l3, err := levelPool(ctx, cfg, in, prefix, true, share)
	if err != nil {
		return nil, err
	}
	tally(l3)
	l4, err := levelPool(ctx, cfg, in, prefix, false, share)
	if err != nil {
		return nil, err
	}
	tally(l4)
	l5, l5lat, err := levelExecute(ctx, prefix, lower, share)
	if err != nil {
		return nil, err
	}
	r.attempted += len(l5)
	l67, err := levelCompileSim(prefix, lower, share)
	if err != nil {
		return nil, err
	}
	r.attempted += len(l67.cycles)
	for i, c := range l67.cycles {
		// Level 7 must simulate exactly what level 5 executed.
		if i < len(l5) && c != deviceCycles(l5[i].res) {
			r.mismatched++
		}
	}
	speedup, err := gpuParSpeedup(prefix, cfg.seconds, share)
	if err != nil {
		return nil, err
	}
	distinct := distinctExecuted(l5)
	st, err := storeProbe(cfg.tmp, distinct)
	if err != nil {
		return nil, err
	}

	r.add("cluster.router_ms", paired(l1.st.lat, l2.st.lat), "ms")
	r.add("cluster.router_hit_ratio", l1.hitRatio, "ratio")
	r.add("cluster.ring_owner_ns", ringOwnerNS(in.table), "ns")
	r.add("jobs.http_ms", paired(l2.st.lat, l3.lat), "ms")
	r.add("jobs.pool_ms", paired(l4.lat, l5lat), "ms")
	r.add("jobs.queue_wait_ms", spanMeanMS(l1.spans, "queue.wait"), "ms")
	r.add("jobs.mem_hit_ratio", l2.memHitRatio, "ratio")
	r.add("jobs.disk_hit_ratio", l2.diskHitRatio, "ratio")
	r.add("jobs.key_us", medianUS(min(len(in.table), 2000), func(i int) { in.table[i].job.Key() }), "us")
	r.add("jobs.result_json_us", medianUS(len(distinct), func(i int) { distinct[i].res.JSON() }), "us")
	r.add("jobs.client_retries", float64(l1.retries+l2.retries), "count")
	r.add("store.ms", paired(l3.lat, l4.lat), "ms")
	r.add("store.accept_ms", median(st.acceptMS), "ms")
	r.add("store.done_ms", median(st.doneMS), "ms")
	r.add("store.load_us", median(st.loadUS), "us")
	r.add("store.replay_ms", st.replayMS, "ms")
	seal, open := integrityUS(distinct)
	r.add("integrity.seal_us", seal, "us")
	r.add("integrity.open_us", open, "us")
	r.add("compiler.parse_us", median(l67.parseUS), "us")
	r.add("compiler.compile_us", median(l67.compileUS), "us")
	r.add("sim.run_ms", median(l67.runMS), "ms")
	r.add("sim.ns_per_cycle", l67.ns/float64(l67.totalCycles), "ns")
	r.add("sim.allocs_per_cycle", float64(l67.mallocs)/float64(l67.totalCycles), "allocs")
	r.add("sim.cycles_per_job", float64(l67.totalCycles)/float64(len(l67.cycles)), "cycles")
	r.add("sim.gpu_par_speedup", speedup, "ratio")
	r.add("obs.span_ns", spanNS(), "ns")
	r.add("obs.tracer_cost_ratio", pairedRatio(l1.st.lat, l1u.st.lat)-1, "ratio")
	r.add("obs.unattributed_ms", l1.unattributedMS, "ms")
	for _, name := range spanNames {
		r.add("span."+name+".ms", spanMeanMS(l1.spans, name), "ms")
	}

	checked, mismatched, err := check(ctx, l1.st.samples)
	if err != nil {
		return nil, err
	}
	r.checked, r.mismatched = checked, r.mismatched+mismatched
	r.chrome = l1.chrome
	r.info = map[string]any{
		"prefix":         len(prefix.seq),
		"level_requests": []int{l1.st.attempted, l2.st.attempted, l3.attempted, l4.attempted, len(l5), len(l67.parseUS), len(l67.cycles)},
		"untraced_l1":    l1u.st.attempted,
		"store_jobs":     len(st.acceptMS),
	}
	if err := firstErr(l1.st, l1u.st, l2.st, l3, l4); err != nil {
		r.info["first_error"] = err.Error()
	}
	return r, nil
}

// paired is a layer's cost: the median, over the requests both levels
// timed, of the per-request difference upper[i] - lower[i]. Levels
// time the same requests in the same order, so pairing cancels the
// spread of the requests' own cost.
func paired(upper, lower []float64) float64 {
	d := make([]float64, min(len(upper), len(lower)))
	for i := range d {
		d[i] = upper[i] - lower[i]
	}
	return median(d)
}

// pairedRatio is the median per-request ratio upper[i] / lower[i].
func pairedRatio(upper, lower []float64) float64 {
	d := make([]float64, min(len(upper), len(lower)))
	for i := range d {
		d[i] = upper[i] / lower[i]
	}
	return median(d)
}

func firstErr(sts ...loopStats) error {
	for _, st := range sts {
		if st.firstErr != nil {
			return st.firstErr
		}
	}
	return nil
}

// routerLevel is level 1's observations.
type routerLevel struct {
	st             loopStats
	hitRatio       float64 // router cache hits / submits over the timed prefix
	unattributedMS float64 // mean client latency not covered by router.submit
	spans          map[string]obs.HistogramSnapshot
	retries        uint64
	chrome         []byte
}

// levelRouter is level 1: the client through the router of a freshly
// set-up cluster, with tracing on (as regvd runs) or off.
func levelRouter(ctx context.Context, cfg runConfig, in, prefix *inputs, hc *http.Client, traced bool, share time.Duration) (*routerLevel, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "router-")
	if err != nil {
		return nil, err
	}
	c, _, err := setUp(ctx, dir, traced, in, hc)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl := newClient(c.url, hc)
	lv := &routerLevel{}
	if traced {
		// The sequence's first request, sent untimed just before the
		// loop, joins a known trace; its spans are fetched before the
		// tracers' rings can evict them.
		r, async := in.jobAt(0)
		traceCtx := obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: benchTraceID, SpanID: "0000000062656e63"})
		if _, err := send(traceCtx, cl, r.job, async); err != nil {
			return nil, err
		}
		if lv.chrome, err = c.chromeTrace(ctx, hc, benchTraceID); err != nil {
			return nil, err
		}
	}
	before, err := c.status(hc)
	if err != nil {
		return nil, err
	}
	submitBefore := c.rtracer.Histograms()["router.submit"]
	lv.st = closedLoop(prefix, 1, time.Now().Add(share), func(_ int, r request, async bool) (*jobs.Result, error) {
		return send(ctx, cl, r.job, async)
	})
	after, err := c.status(hc)
	if err != nil {
		return nil, err
	}
	if d := after.Submitted - before.Submitted; d > 0 {
		lv.hitRatio = float64(after.CacheHits-before.CacheHits) / float64(d)
	}
	lv.retries = cl.Metrics().Retries
	if !traced {
		return lv, nil
	}
	submitAfter := c.rtracer.Histograms()["router.submit"]
	covered := (submitAfter.Sum - submitBefore.Sum) * 1000
	total := 0.0
	for _, ms := range lv.st.lat {
		total += ms
	}
	lv.unattributedMS = (total - covered) / float64(len(lv.st.lat))
	lv.spans = mergeSpans(c.tracers())
	return lv, nil
}

// shardLevel is level 2's observations.
type shardLevel struct {
	st                        loopStats
	memHitRatio, diskHitRatio float64 // pool hits / pool submits over the timed prefix
	retries                   uint64
}

// levelShard is level 2: a freshly set-up cluster, but the client sends
// each request straight to the shard the ring says owns it.
func levelShard(ctx context.Context, cfg runConfig, in, prefix *inputs, hc *http.Client, share time.Duration) (*shardLevel, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "shard-")
	if err != nil {
		return nil, err
	}
	c, _, err := setUp(ctx, dir, true, in, hc)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var names []string
	clients := map[string]*client.Client{}
	for _, s := range c.shards {
		names = append(names, s.name)
		clients[s.name] = newClient(s.url, hc)
	}
	ring, err := cluster.NewRing(names, 0) // 0 = the router's default vnodes
	if err != nil {
		return nil, err
	}
	before := c.poolTotals()
	lv := &shardLevel{}
	lv.st = closedLoop(prefix, 1, time.Now().Add(share), func(_ int, r request, async bool) (*jobs.Result, error) {
		return send(ctx, clients[ring.Owner(r.key)], r.job, async)
	})
	after := c.poolTotals()
	if d := after.Submitted - before.Submitted; d > 0 {
		lv.memHitRatio = float64(after.CacheHits-before.CacheHits) / float64(d)
		lv.diskHitRatio = float64(after.DiskHits-before.DiskHits) / float64(d)
	}
	for _, cl := range clients {
		lv.retries += cl.Metrics().Retries
	}
	return lv, nil
}

// levelPool is levels 3 and 4: Pool.Submit on a fresh pool configured
// like a shard's, with or without its store. Without a store the mixed
// restart has nothing to replay, so the prefill stays in memory.
func levelPool(ctx context.Context, cfg runConfig, in, prefix *inputs, withStore bool, share time.Duration) (loopStats, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "pool-")
	if err != nil {
		return loopStats{}, err
	}
	var (
		p  *jobs.Pool
		st *store.Store
	)
	open := func() error {
		opts := jobs.Options{Workers: runtime.NumCPU(), Tracer: obs.NewTracer("pool"), Logger: discardLogger(slog.String("shard", "pool"))}
		var recovered []jobs.RecoveredJob
		if withStore {
			var err error
			if st, recovered, err = store.Open(dir); err != nil {
				return err
			}
			opts.Store, opts.CheckpointEvery = st, checkpointEvery
		}
		p = jobs.NewPoolWith(opts)
		p.Restore(recovered)
		return nil
	}
	shut := func() error {
		p.Close()
		if st != nil {
			return st.Close()
		}
		return nil
	}
	if err := open(); err != nil {
		return loopStats{}, err
	}
	submit := func(j jobs.Job) (*jobs.Result, error) { return p.Submit(ctx, j) }
	if _, err := fanOut(in.prefill, runtime.NumCPU(), submit); err != nil {
		shut()
		return loopStats{}, err
	}
	if in.restart && withStore {
		if err := shut(); err != nil {
			return loopStats{}, err
		}
		if err := open(); err != nil {
			return loopStats{}, err
		}
	}
	if _, err := fanOut(in.warmup, runtime.NumCPU(), submit); err != nil {
		shut()
		return loopStats{}, err
	}
	stats := closedLoop(prefix, 1, time.Now().Add(share), func(_ int, r request, async bool) (*jobs.Result, error) {
		if !async {
			return p.Submit(ctx, r.job)
		}
		id, err := p.SubmitAsync(r.job)
		if err != nil {
			return nil, err
		}
		return waitPool(ctx, p, id)
	})
	return stats, shut()
}

// waitPool is client.Wait against a pool: poll Status until the job
// leaves "running".
func waitPool(ctx context.Context, p *jobs.Pool, id string) (*jobs.Result, error) {
	for {
		st, ok := p.Status(id)
		switch {
		case !ok:
			return nil, fmt.Errorf("pool lost job %s", id)
		case st.State == "done":
			return st.Result, nil
		case st.State == "failed":
			return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		select {
		case <-time.After(pollEvery):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// levelExecute is level 5: jobs.Execute of the first n requests on the
// calling goroutine, no cache, every request executed.
func levelExecute(ctx context.Context, prefix *inputs, n int, share time.Duration) ([]executed, []float64, error) {
	var out []executed
	var lat []float64
	until := time.Now().Add(share)
	for i := 0; i < n; i++ {
		if i > 0 && !time.Now().Before(until) {
			break
		}
		r, _ := prefix.jobAt(i)
		t0 := time.Now()
		res, err := jobs.Execute(ctx, r.job)
		ms := msSince(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("jobs.Execute %s: %w", r.key, err)
		}
		out = append(out, executed{req: r, res: res})
		lat = append(lat, ms)
	}
	return out, lat, nil
}

// compiled is one job lowered to what the simulator takes.
type compiled struct {
	spec sim.LaunchSpec
	cfg  sim.Config
	gpu  bool
}

// compileJob does what jobs.Execute does before simulating, through
// the public entry points: parse, compile, and the sim.Config of the
// normalized job. Level 7's cycle counts are checked against level 5's
// results, so a drift from the jobs layer's defaults shows as a
// mismatch.
func compileJob(j jobs.Job) (c compiled, parse, comp time.Duration, err error) {
	mode := rename.ModeCompiler
	if j.Mode != "" {
		if mode, err = rename.ParseMode(j.Mode); err != nil {
			return c, 0, 0, err
		}
	}
	t0 := time.Now()
	var (
		prog *isa.Program
		opts compiler.Options
		spec func(*compiler.Kernel) sim.LaunchSpec
	)
	if j.Workload != "" {
		w, werr := workloads.ByName(j.Workload)
		if werr != nil {
			return c, 0, 0, werr
		}
		prog, opts, spec = w.Program(), w.CompileOptions(), w.Spec
	} else {
		if prog, err = isa.Parse(j.Kernel); err != nil {
			return c, 0, 0, err
		}
		grid, threads, conc := orDefault(j.GridCTAs, 16), orDefault(j.ThreadsPerCTA, 128), orDefault(j.ConcCTAs, 4)
		opts = compiler.Options{ResidentWarps: (threads + arch.WarpSize - 1) / arch.WarpSize * conc}
		spec = func(k *compiler.Kernel) sim.LaunchSpec {
			return sim.LaunchSpec{Kernel: k, GridCTAs: grid, ThreadsPerCTA: threads, ConcCTAs: conc}
		}
	}
	parse = time.Since(t0)
	opts.TableBytes = arch.RenameTableBudgetBytes
	opts.NoFlags = mode != rename.ModeCompiler
	t1 := time.Now()
	k, err := compiler.Compile(prog, opts)
	comp = time.Since(t1)
	if err != nil {
		return c, 0, 0, err
	}
	c = compiled{spec: spec(k), gpu: j.WholeGPU, cfg: sim.Config{
		Mode:             mode,
		PhysRegs:         orDefault(j.PhysRegs, arch.NumPhysRegs),
		WakeupLatency:    1,
		FlagCacheEntries: arch.FlagCacheEntries,
		GPUParallel:      j.GPUParallel,
	}}
	if mode == rename.ModeRegCache {
		c.cfg.RFCacheEntries = arch.RFCacheEntries
	}
	return c, parse, comp, nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// deviceCycles is a result's simulated run time: the device's for a
// whole-GPU job (whose scalar fields describe its busiest SM).
func deviceCycles(r *jobs.Result) uint64 {
	if r.GPU != nil {
		return r.GPU.DeviceCycles
	}
	return r.Cycles
}

// simulate runs one compiled job and returns its simulated cycles.
func simulate(c compiled) (uint64, error) {
	if c.gpu {
		g, err := sim.RunGPU(c.cfg, c.spec)
		if err != nil {
			return 0, err
		}
		return g.Cycles, nil
	}
	res, err := sim.Run(c.cfg, c.spec)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// simLevel is levels 6 and 7.
type simLevel struct {
	parseUS, compileUS, runMS []float64
	cycles                    []uint64
	totalCycles               uint64
	ns                        float64 // summed sim wall time
	mallocs                   uint64  // process-wide allocations during level 7
}

// levelCompileSim is levels 6 and 7: parse and compile the first n
// requests, then simulate what was compiled, in level 5's order, so
// their cycles can be compared request by request.
func levelCompileSim(prefix *inputs, n int, share time.Duration) (*simLevel, error) {
	lv := &simLevel{}
	var cs []compiled
	for i := 0; i < n; i++ {
		r, _ := prefix.jobAt(i)
		c, parse, comp, err := compileJob(r.job)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", r.key, err)
		}
		cs = append(cs, c)
		lv.parseUS = append(lv.parseUS, float64(parse)/float64(time.Microsecond))
		lv.compileUS = append(lv.compileUS, float64(comp)/float64(time.Microsecond))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	until := time.Now().Add(share)
	for i, c := range cs {
		if i > 0 && !time.Now().Before(until) {
			break
		}
		t0 := time.Now()
		cycles, err := simulate(c)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("simulate request %d: %w", i, err)
		}
		lv.runMS = append(lv.runMS, float64(d)/float64(time.Millisecond))
		lv.ns += float64(d)
		lv.cycles = append(lv.cycles, cycles)
		lv.totalCycles += cycles
	}
	runtime.ReadMemStats(&after)
	lv.mallocs = after.Mallocs - before.Mallocs
	return lv, nil
}

// gpuParSpeedup times sim.RunGPU of the prefix's first n jobs on the
// whole device with one compute worker and with nproc, alternating, and
// returns the ratio of the summed times (above 1: the parallel engine
// wins). A single-SM job was screened on one SM only, so the whole
// device runs it under the screen's cycle bound, and a job that does
// not finish there is skipped.
func gpuParSpeedup(prefix *inputs, n int, share time.Duration) (float64, error) {
	var seq, par time.Duration
	until := time.Now().Add(share)
	for i := 0; i < min(n, len(prefix.seq)); i++ {
		if i > 0 && !time.Now().Before(until) {
			break
		}
		r, _ := prefix.jobAt(i)
		c, _, _, err := compileJob(r.job)
		if err != nil {
			return 0, err
		}
		if !c.gpu {
			c.gpu, c.cfg.MaxCycles = true, screenCycles
		}
		for _, workers := range []int{1, runtime.NumCPU()} {
			c.cfg.GPUParallel = workers
			t0 := time.Now()
			if _, err := simulate(c); err != nil {
				if c.cfg.MaxCycles == screenCycles && workers == 1 {
					break
				}
				return 0, err
			}
			if workers == 1 {
				seq += time.Since(t0)
			} else {
				par += time.Since(t0)
			}
		}
	}
	return float64(seq) / float64(par), nil
}

func distinctExecuted(xs []executed) []executed {
	seen := map[string]bool{}
	var out []executed
	for _, x := range xs {
		if !seen[x.req.key] {
			seen[x.req.key] = true
			out = append(out, x)
		}
	}
	return out
}

// storeTimes is the store probe's observations.
type storeTimes struct {
	acceptMS, doneMS, loadUS []float64
	replayMS                 float64
}

// storeProbe journals and persists up to storeJobs distinct executed
// jobs through a fresh store (Accept fsyncs; Done seals and persists),
// reads every result back from disk, and times reopening the store,
// which replays the journal and loads every finished result.
func storeProbe(tmp string, xs []executed) (*storeTimes, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	xs = xs[:min(len(xs), storeJobs)]
	out := &storeTimes{}
	for _, x := range xs {
		t0 := time.Now()
		if err := st.Accept(x.req.key, x.req.job, false); err != nil {
			st.Close()
			return nil, err
		}
		t1 := time.Now()
		if err := st.Done(x.req.key, x.res); err != nil {
			st.Close()
			return nil, err
		}
		out.acceptMS = append(out.acceptMS, float64(t1.Sub(t0))/float64(time.Millisecond))
		out.doneMS = append(out.doneMS, msSince(t1))
	}
	for _, x := range xs {
		t0 := time.Now()
		if _, ok := st.LoadResult(x.req.key); !ok {
			st.Close()
			return nil, fmt.Errorf("store lost result %s", x.req.key)
		}
		out.loadUS = append(out.loadUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, recovered, err := store.Open(dir)
	out.replayMS = msSince(t0)
	if err != nil {
		return nil, err
	}
	if len(recovered) != len(xs) {
		st.Close()
		return nil, fmt.Errorf("store replay recovered %d jobs, want %d", len(recovered), len(xs))
	}
	return out, st.Close()
}

// integrityUS is the median Seal and Open time of the results'
// envelopes, sealed with their job specs as the store seals them. An
// envelope that does not open is a bug and fails the run (NaN).
func integrityUS(xs []executed) (seal, open float64) {
	var s, o []float64
	for _, x := range xs {
		data := x.res.JSON()
		spec, _ := json.Marshal(x.req.job) // a Job is plain data
		t0 := time.Now()
		env := integrity.Seal(data, spec)
		t1 := time.Now()
		_, err := integrity.Open(env)
		t2 := time.Now()
		if err != nil {
			return math.NaN(), math.NaN()
		}
		s = append(s, float64(t1.Sub(t0))/float64(time.Microsecond))
		o = append(o, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	return median(s), median(o)
}

// medianUS is the median time of fn(i) over i in [0, n), in µs.
func medianUS(n int, fn func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn(i)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us)
}

// ringOwnerNS is the mean cost of one consistent-hash lookup over the
// workload's keys.
func ringOwnerNS(table []request) float64 {
	names := make([]string, nShards)
	for i := range names {
		names[i] = shardName(i)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return math.NaN() // fails the run: three distinct names always make a ring
	}
	const lookups = 100_000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owner(table[i%len(table)].key)
	}
	return float64(time.Since(t0)) / lookups
}

// spanNS is the mean cost of one Start+End on a fresh tracer.
func spanNS() float64 {
	tr := obs.NewTracer("bench")
	ctx := context.Background()
	const spans = 20_000
	t0 := time.Now()
	for i := 0; i < spans; i++ {
		_, sp := tr.Start(ctx, "bench.span")
		sp.End()
	}
	return float64(time.Since(t0)) / spans
}

// mergeSpans sums the per-name duration histograms of several tracers.
func mergeSpans(tracers []*obs.Tracer) map[string]obs.HistogramSnapshot {
	out := map[string]obs.HistogramSnapshot{}
	for _, t := range tracers {
		for name, h := range t.Histograms() {
			m := out[name]
			m.Count += h.Count
			m.Sum += h.Sum
			out[name] = m
		}
	}
	return out
}

// spanMeanMS is a span's mean duration in ms (0 when none was recorded).
func spanMeanMS(spans map[string]obs.HistogramSnapshot, name string) float64 {
	h := spans[name]
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count) * 1000
}
