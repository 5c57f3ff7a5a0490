package jobs

import (
	"sort"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// metrics is the pool's counter set. All counters are monotonically
// increasing except the two gauges (queued, running).
type metrics struct {
	submitted atomic.Uint64 // Submit calls accepted past validation
	completed atomic.Uint64 // Submit calls that returned a result
	failed    atomic.Uint64 // Submit calls that returned an error
	executed  atomic.Uint64 // submissions that ran a simulation (cache misses)
	deduped   atomic.Uint64 // submissions that joined an in-flight run
	cacheHits atomic.Uint64 // submissions answered from the completed cache

	panicsRecovered atomic.Uint64 // panics contained by a worker/submit barrier
	shed            atomic.Uint64 // submissions refused by admission control (429)
	quotaRejected   atomic.Uint64 // submissions refused by tenant quota/admission (403)
	evicted         atomic.Uint64 // async status records evicted (TTL/capacity)

	preemptions atomic.Uint64 // running jobs checkpoint-interrupted for higher priority
	resumes     atomic.Uint64 // preempted jobs re-dispatched (from checkpoint when stored)

	tenantOverflow atomic.Uint64 // counter lookups folded into the ~overflow row

	journalReplayed    atomic.Uint64 // jobs reconstructed from the journal at startup
	checkpointsWritten atomic.Uint64 // durable checkpoints of in-flight simulations
	resultsPersisted   atomic.Uint64 // results written to the on-disk store
	diskHits           atomic.Uint64 // fills served from the on-disk store

	scrubScanned  atomic.Uint64 // files examined by the at-rest scrubber
	scrubCorrupt  atomic.Uint64 // files that failed envelope verification
	scrubRepaired atomic.Uint64 // corrupt files self-healed (refetch/resim/drop)

	queued  atomic.Int64 // tasks enqueued but not yet picked up
	running atomic.Int64 // tasks executing on a worker

	lat *obs.Histogram // submit latency, seconds
}

// tenantCounters is one tenant's slice of the pool counters. Gauges
// (queued/running) live in the scheduler; these are monotonic.
type tenantCounters struct {
	submitted     atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	shed          atomic.Uint64
	quotaRejected atomic.Uint64
	preemptions   atomic.Uint64
	resumes       atomic.Uint64
	lat           *obs.Histogram
}

// quantilesMS estimates the p50 and p99 of a latency histogram in
// milliseconds.
func quantilesMS(s obs.HistogramSnapshot) (p50, p99 float64) {
	return s.Quantile(0.5) * 1000, s.Quantile(0.99) * 1000
}

// maxTrackedTenants bounds the per-tenant counter map; tenants beyond
// it aggregate under overflowTenant so hostile tenant churn cannot
// grow the metrics without bound (the scheduler bounds its own table
// separately, at sched.MaxTenants).
const (
	maxTrackedTenants = 128
	overflowTenant    = "~overflow"
)

// tenantCounters returns (creating if needed) the tenant's counter
// slice, folding excess tenants into the overflow bucket.
func (p *Pool) tenantCounters(tenant string) *tenantCounters {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	if tc, ok := p.tcs[tenant]; ok {
		return tc
	}
	if len(p.tcs) >= maxTrackedTenants {
		// Every folded lookup is counted so the overflow is visible in
		// /metrics (tenants_overflowed) instead of silently aggregating.
		p.m.tenantOverflow.Add(1)
		tenant = overflowTenant
		if tc, ok := p.tcs[tenant]; ok {
			return tc
		}
	}
	tc := &tenantCounters{lat: obs.NewHistogram(obs.DefLatencyBuckets...)}
	p.tcs[tenant] = tc
	return tc
}

// TenantSnapshot is one tenant's point-in-time view: scheduler state
// (weight, quotas, gauges) merged with the pool's per-tenant counters.
type TenantSnapshot struct {
	Tenant      string `json:"tenant"`
	Weight      int    `json:"weight"`
	MaxQueued   int    `json:"max_queued,omitempty"`
	MaxRunning  int    `json:"max_running,omitempty"`
	MaxPriority int    `json:"max_priority,omitempty"`

	Queued     int64  `json:"queued"`
	Running    int64  `json:"running"`
	Dispatched uint64 `json:"dispatched"`

	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Shed          uint64 `json:"shed"`
	QuotaRejected uint64 `json:"quota_rejected"`
	Preemptions   uint64 `json:"preemptions"`
	Resumes       uint64 `json:"resumes"`

	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
}

// QueuesSnapshot is the GET /v1/queues body: whether unknown tenants
// are refused, whether checkpoint preemption is armed, and every tenant
// queue, sorted by tenant name.
type QueuesSnapshot struct {
	Strict     bool             `json:"strict"`
	Preemption bool             `json:"preemption"`
	Queues     []TenantSnapshot `json:"queues"`
}

// Queues snapshots the per-tenant scheduler and counter state.
func (p *Pool) Queues() QueuesSnapshot {
	stats := p.sched.Snapshot()
	byName := make(map[string]sched.QueueStat, len(stats))
	names := make(map[string]bool, len(stats))
	for _, st := range stats {
		byName[st.Tenant] = st
		names[st.Tenant] = true
	}
	p.tmu.Lock()
	tcs := make(map[string]*tenantCounters, len(p.tcs))
	for name, tc := range p.tcs {
		tcs[name] = tc
		names[name] = true
	}
	p.tmu.Unlock()

	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	qs := QueuesSnapshot{
		Strict:     p.sched.Strict(),
		Preemption: p.store != nil,
		Queues:     make([]TenantSnapshot, 0, len(sorted)),
	}
	for _, name := range sorted {
		ts := TenantSnapshot{Tenant: name}
		if st, ok := byName[name]; ok {
			ts.Weight = st.Weight
			ts.MaxQueued, ts.MaxRunning, ts.MaxPriority = st.MaxQueued, st.MaxRunning, st.MaxPriority
			ts.Queued, ts.Running = int64(st.Queued), int64(st.Running)
			ts.Dispatched = st.Dispatched
		}
		if tc, ok := tcs[name]; ok {
			ts.Submitted = tc.submitted.Load()
			ts.Completed = tc.completed.Load()
			ts.Failed = tc.failed.Load()
			ts.Shed = tc.shed.Load()
			ts.QuotaRejected = tc.quotaRejected.Load()
			ts.Preemptions = tc.preemptions.Load()
			ts.Resumes = tc.resumes.Load()
			ts.LatencyP50MS, ts.LatencyP99MS = quantilesMS(tc.lat.Snapshot())
		}
		qs.Queues = append(qs.Queues, ts)
	}
	return qs
}

// MetricsSnapshot is the point-in-time view /metrics serves. The
// counters satisfy two invariants once the pool is idle, which the
// chaos suite asserts even under injected errors, panics and shedding:
//
//	submitted == completed + failed
//	submitted == executed + deduped + cache_hits
//
// (executed counts fill *starts*, so both invariants survive a fill
// that panics out of the cache; shed submissions count as executed +
// failed.)
type MetricsSnapshot struct {
	Workers      int     `json:"workers"`
	Submitted    uint64  `json:"submitted"`
	Completed    uint64  `json:"completed"`
	Failed       uint64  `json:"failed"`
	Executed     uint64  `json:"executed"`
	Deduped      uint64  `json:"deduped"`
	CacheHits    uint64  `json:"cache_hits"`
	QueueDepth   int64   `json:"queue_depth"`
	Running      int64   `json:"running"`
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`

	// PanicsRecovered counts panics the containment barriers turned
	// into errors; any non-zero value with the daemon still serving is
	// the containment working.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// Shed counts submissions refused by admission control (HTTP 429).
	Shed uint64 `json:"shed"`
	// QuotaRejected counts submissions refused by per-tenant quota or
	// admission policy (HTTP 403).
	QuotaRejected uint64 `json:"quota_rejected"`
	// Preemptions counts running jobs checkpoint-interrupted to make
	// room for a higher-priority arrival; Resumes counts their
	// re-dispatches (from the journaled checkpoint when a store is
	// armed). A preempted job that happened to finish before the
	// interrupt landed is counted as a preemption without a resume.
	Preemptions uint64 `json:"preemptions"`
	Resumes     uint64 `json:"resumes"`
	// JobsEvicted counts async status records dropped by TTL/capacity
	// eviction; AsyncTracked is the registry's current size.
	JobsEvicted  uint64 `json:"jobs_evicted"`
	AsyncTracked int    `json:"async_tracked"`

	// UptimeSeconds is the time since this pool (and in practice this
	// daemon process) started — after a crash-restart it resets, while
	// journal_replayed shows what the restart recovered.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Durability counters, all zero without a configured store:
	// JournalReplayed counts jobs reconstructed from the write-ahead
	// journal at startup, CheckpointsWritten durable checkpoints of
	// in-flight simulations, ResultsPersisted results written to the
	// on-disk result store, and DiskHits fills served from it instead
	// of re-simulating.
	JournalReplayed    uint64 `json:"journal_replayed"`
	CheckpointsWritten uint64 `json:"checkpoints_written"`
	ResultsPersisted   uint64 `json:"results_persisted"`
	DiskHits           uint64 `json:"disk_hits"`

	// Integrity-scrubber counters (all zero until -scrub-every arms the
	// background scrubber): ScrubScanned files examined, ScrubCorrupt
	// envelope verification failures, ScrubRepaired corrupt files
	// self-healed — peer refetch, deterministic re-simulation, or (for
	// checkpoints, which are pure optimization) a safe drop.
	ScrubScanned  uint64 `json:"scrub_scanned"`
	ScrubCorrupt  uint64 `json:"scrub_corrupt"`
	ScrubRepaired uint64 `json:"scrub_repaired"`

	ResultCache CacheStats `json:"result_cache"`
	KernelCache CacheStats `json:"kernel_cache"`

	// TenantsTracked is the per-tenant counter table's current size.
	// The table is bounded at 128 tenants; once full, counter updates
	// for new tenants aggregate under the "~overflow" row in Tenants
	// (and /v1/queues) rather than being dropped. TenantsOverflowed
	// counts those folded updates — any non-zero value means the
	// "~overflow" row is live and per-tenant attribution is partial.
	TenantsTracked    int    `json:"tenants_tracked"`
	TenantsOverflowed uint64 `json:"tenants_overflowed"`

	// Tenants is the per-tenant breakdown (also served, with scheduler
	// configuration, by GET /v1/queues).
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`

	// Latency is the submit-latency histogram (seconds). The p50/p99
	// fields, here and per tenant, are estimated from such buckets the
	// way Prometheus's histogram_quantile does, so they are exact only
	// to the bucket layout (obs.DefLatencyBuckets). Shipped whole so
	// the cluster router can aggregate it: bucket counts sum across
	// shards, quantiles do not.
	Latency obs.HistogramSnapshot `json:"latency"`

	// SpanDurations is the tracer's per-span-name duration histogram
	// table (seconds), present only when tracing is on.
	SpanDurations map[string]obs.HistogramSnapshot `json:"span_durations,omitempty"`
}

// AddScrubStats folds one scrub pass's tallies into the pool counters.
// The daemon's background scrubber calls this after every pass so the
// scrub_* metrics surface through /metrics in both formats.
func (p *Pool) AddScrubStats(scanned, corrupt, repaired int) {
	if scanned > 0 {
		p.m.scrubScanned.Add(uint64(scanned))
	}
	if corrupt > 0 {
		p.m.scrubCorrupt.Add(uint64(corrupt))
	}
	if repaired > 0 {
		p.m.scrubRepaired.Add(uint64(repaired))
	}
}

// Metrics snapshots the pool counters.
func (p *Pool) Metrics() MetricsSnapshot {
	lat := p.m.lat.Snapshot()
	p50, p99 := quantilesMS(lat)
	p.mu.Lock()
	tracked := len(p.status)
	p.mu.Unlock()
	p.tmu.Lock()
	tenantsTracked := len(p.tcs)
	p.tmu.Unlock()
	queues := p.Queues()
	tenants := make(map[string]TenantSnapshot, len(queues.Queues))
	for _, ts := range queues.Queues {
		tenants[ts.Tenant] = ts
	}
	return MetricsSnapshot{
		Workers:         p.workers,
		Submitted:       p.m.submitted.Load(),
		Completed:       p.m.completed.Load(),
		Failed:          p.m.failed.Load(),
		Executed:        p.m.executed.Load(),
		Deduped:         p.m.deduped.Load(),
		CacheHits:       p.m.cacheHits.Load(),
		QueueDepth:      p.m.queued.Load(),
		Running:         p.m.running.Load(),
		LatencyP50MS:    p50,
		LatencyP99MS:    p99,
		PanicsRecovered: p.m.panicsRecovered.Load(),
		Shed:            p.m.shed.Load(),
		QuotaRejected:   p.m.quotaRejected.Load(),
		Preemptions:     p.m.preemptions.Load(),
		Resumes:         p.m.resumes.Load(),
		JobsEvicted:     p.m.evicted.Load(),
		AsyncTracked:    tracked,

		UptimeSeconds:      time.Since(p.started).Seconds(),
		JournalReplayed:    p.m.journalReplayed.Load(),
		CheckpointsWritten: p.m.checkpointsWritten.Load(),
		ResultsPersisted:   p.m.resultsPersisted.Load(),
		DiskHits:           p.m.diskHits.Load(),

		ScrubScanned:  p.m.scrubScanned.Load(),
		ScrubCorrupt:  p.m.scrubCorrupt.Load(),
		ScrubRepaired: p.m.scrubRepaired.Load(),

		ResultCache: p.results.Stats(),
		KernelCache: p.kernels.Stats(),

		TenantsTracked:    tenantsTracked,
		TenantsOverflowed: p.m.tenantOverflow.Load(),

		Tenants:       tenants,
		Latency:       lat,
		SpanDurations: p.tracer.Histograms(),
	}
}
