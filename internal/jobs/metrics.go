package jobs

import (
	"sort"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// metrics is the pool's counter set: the monotonic counters, indexed
// by counter and described once in counterRows, and two gauges.
type metrics struct {
	c [numCounters]atomic.Uint64

	queued  atomic.Int64 // tasks enqueued but not yet picked up
	running atomic.Int64 // tasks executing on a worker

	lat *obs.Histogram // submit latency, seconds
}

// counter names one monotonic pool counter.
type counter int

// The pool counters, in the order the Prometheus exposition renders
// them.
const (
	cSubmitted counter = iota
	cCompleted
	cFailed
	cExecuted
	cDeduped
	cCacheHits
	cShed
	cQuotaRejected
	cPanicsRecovered
	cPreemptions
	cResumes
	// Rendered after the queue gauges and the latency histogram.
	cJournalReplayed
	cCheckpointsWritten
	cResultsPersisted
	cDiskHits
	cScrubScanned
	cScrubCorrupt
	cScrubRepaired
	// Rendered after the cache families and the tenant-table gauge.
	cTenantOverflow
	numCounters
)

// counterRow is a pool counter's one description: the MetricsSnapshot
// field it fills (whose doc and JSON key say what it counts) and its
// Prometheus family.
type counterRow struct {
	field      func(*MetricsSnapshot) *uint64
	name, help string
}

var counterRows = [numCounters]counterRow{
	cSubmitted:          {func(m *MetricsSnapshot) *uint64 { return &m.Submitted }, "regvd_jobs_submitted_total", "Submissions accepted past validation."},
	cCompleted:          {func(m *MetricsSnapshot) *uint64 { return &m.Completed }, "regvd_jobs_completed_total", "Submissions that returned a result."},
	cFailed:             {func(m *MetricsSnapshot) *uint64 { return &m.Failed }, "regvd_jobs_failed_total", "Submissions that returned an error."},
	cExecuted:           {func(m *MetricsSnapshot) *uint64 { return &m.Executed }, "regvd_jobs_executed_total", "Submissions that started a simulation (cache misses)."},
	cDeduped:            {func(m *MetricsSnapshot) *uint64 { return &m.Deduped }, "regvd_jobs_deduped_total", "Submissions that joined an in-flight run."},
	cCacheHits:          {func(m *MetricsSnapshot) *uint64 { return &m.CacheHits }, "regvd_jobs_cache_hits_total", "Submissions answered from the completed-result cache."},
	cShed:               {func(m *MetricsSnapshot) *uint64 { return &m.Shed }, "regvd_jobs_shed_total", "Submissions refused by admission control (HTTP 429)."},
	cQuotaRejected:      {func(m *MetricsSnapshot) *uint64 { return &m.QuotaRejected }, "regvd_jobs_quota_rejected_total", "Submissions refused by tenant quota or admission policy (HTTP 403)."},
	cPanicsRecovered:    {func(m *MetricsSnapshot) *uint64 { return &m.PanicsRecovered }, "regvd_panics_recovered_total", "Panics contained by a worker or submit barrier."},
	cPreemptions:        {func(m *MetricsSnapshot) *uint64 { return &m.Preemptions }, "regvd_preemptions_total", "Running jobs checkpoint-interrupted for higher-priority work."},
	cResumes:            {func(m *MetricsSnapshot) *uint64 { return &m.Resumes }, "regvd_resumes_total", "Preempted jobs re-dispatched (from checkpoint when stored)."},
	cJournalReplayed:    {func(m *MetricsSnapshot) *uint64 { return &m.JournalReplayed }, "regvd_journal_replayed_total", "Jobs reconstructed from the write-ahead journal at startup."},
	cCheckpointsWritten: {func(m *MetricsSnapshot) *uint64 { return &m.CheckpointsWritten }, "regvd_checkpoints_written_total", "Durable checkpoints of in-flight simulations."},
	cResultsPersisted:   {func(m *MetricsSnapshot) *uint64 { return &m.ResultsPersisted }, "regvd_results_persisted_total", "Results written to the on-disk store."},
	cDiskHits:           {func(m *MetricsSnapshot) *uint64 { return &m.DiskHits }, "regvd_disk_hits_total", "Cache fills served from the on-disk store."},
	cScrubScanned:       {func(m *MetricsSnapshot) *uint64 { return &m.ScrubScanned }, "regvd_scrub_scanned_total", "Files examined by the at-rest integrity scrubber."},
	cScrubCorrupt:       {func(m *MetricsSnapshot) *uint64 { return &m.ScrubCorrupt }, "regvd_scrub_corrupt_total", "Files that failed at-rest envelope verification."},
	cScrubRepaired:      {func(m *MetricsSnapshot) *uint64 { return &m.ScrubRepaired }, "regvd_scrub_repaired_total", "Corrupt files self-healed by the scrubber (refetch, re-simulate, or safe drop)."},
	cTenantOverflow:     {func(m *MetricsSnapshot) *uint64 { return &m.TenantsOverflowed }, "regvd_tenant_overflow_folds_total", "Counter updates folded into the ~overflow row because the tenant table was full."},
}

// tenantRows are the counters also kept per tenant: the TenantSnapshot
// field each fills and its Prometheus family (none for the two that
// only /v1/queues and the JSON breakdown show).
var tenantRows = []struct {
	c          counter
	field      func(*TenantSnapshot) *uint64
	name, help string
}{
	{cSubmitted, func(t *TenantSnapshot) *uint64 { return &t.Submitted }, "regvd_tenant_submitted_total", "Per-tenant submissions accepted past validation."},
	{cCompleted, func(t *TenantSnapshot) *uint64 { return &t.Completed }, "regvd_tenant_completed_total", "Per-tenant submissions that returned a result."},
	{cFailed, func(t *TenantSnapshot) *uint64 { return &t.Failed }, "regvd_tenant_failed_total", "Per-tenant submissions that returned an error."},
	{cShed, func(t *TenantSnapshot) *uint64 { return &t.Shed }, "regvd_tenant_shed_total", "Per-tenant submissions refused by admission control."},
	{cQuotaRejected, func(t *TenantSnapshot) *uint64 { return &t.QuotaRejected }, "regvd_tenant_quota_rejected_total", "Per-tenant submissions refused by quota or admission policy."},
	{cPreemptions, func(t *TenantSnapshot) *uint64 { return &t.Preemptions }, "", ""},
	{cResumes, func(t *TenantSnapshot) *uint64 { return &t.Resumes }, "", ""},
}

// tenantCounters is one tenant's copy of the pool counters in
// tenantRows. Gauges (queued/running) live in the scheduler.
type tenantCounters struct {
	c   [numCounters]atomic.Uint64
	lat *obs.Histogram
}

// count bumps pool counter c together with tenant tc's copy of it.
func (p *Pool) count(tc *tenantCounters, c counter) {
	p.m.c[c].Add(1)
	tc.c[c].Add(1)
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
		p.m.c[cTenantOverflow].Add(1)
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
			for _, r := range tenantRows {
				*r.field(&ts) = tc.c[r.c].Load()
			}
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
	p.m.c[cScrubScanned].Add(uint64(scanned))
	p.m.c[cScrubCorrupt].Add(uint64(corrupt))
	p.m.c[cScrubRepaired].Add(uint64(repaired))
}

// Metrics snapshots the pool counters.
func (p *Pool) Metrics() MetricsSnapshot {
	lat := p.m.lat.Snapshot()
	p.tmu.Lock()
	tenantsTracked := len(p.tcs)
	p.tmu.Unlock()
	queues := p.Queues()
	m := MetricsSnapshot{
		Workers:        p.workers,
		QueueDepth:     p.m.queued.Load(),
		Running:        p.m.running.Load(),
		UptimeSeconds:  time.Since(p.started).Seconds(),
		ResultCache:    p.results.Stats(),
		KernelCache:    p.kernels.Stats(),
		TenantsTracked: tenantsTracked,
		Tenants:        make(map[string]TenantSnapshot, len(queues.Queues)),
		Latency:        lat,
		SpanDurations:  p.tracer.Histograms(),
	}
	m.LatencyP50MS, m.LatencyP99MS = quantilesMS(lat)
	for c, row := range counterRows {
		*row.field(&m) = p.m.c[c].Load()
	}
	for _, ts := range queues.Queues {
		m.Tenants[ts.Tenant] = ts
	}
	return m
}
