package jobs

import (
	"sync/atomic"
	"time"

	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// metrics is the pool's counter set: the monotonic counters, indexed
// by counter and described once in counterRows. The queue gauges are
// the scheduler's totals, a submit's latency is its jobs.submit span's,
// and its cache outcome is the result cache's count; the pool keeps a
// copy of none of them.
type metrics [numCounters]atomic.Uint64

// counter names one monotonic pool counter.
type counter int

// The pool counters, in the order the Prometheus exposition renders
// them.
const (
	cSubmitted counter = iota
	cCompleted
	cFailed
	cShed
	cQuotaRejected
	cPanicsRecovered
	cPreemptions
	cResumes
	// Rendered after the queue gauges.
	cJournalReplayed
	cCheckpointsWritten
	cResultsPersisted
	cDiskHits
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
	cShed:               {func(m *MetricsSnapshot) *uint64 { return &m.Shed }, "regvd_jobs_shed_total", "Submissions refused by admission control (HTTP 429)."},
	cQuotaRejected:      {func(m *MetricsSnapshot) *uint64 { return &m.QuotaRejected }, "regvd_jobs_quota_rejected_total", "Submissions refused by tenant quota or admission policy (HTTP 403)."},
	cPanicsRecovered:    {func(m *MetricsSnapshot) *uint64 { return &m.PanicsRecovered }, "regvd_panics_recovered_total", "Panics contained by a worker or submit barrier."},
	cPreemptions:        {func(m *MetricsSnapshot) *uint64 { return &m.Preemptions }, "regvd_preemptions_total", "Running jobs checkpoint-interrupted for higher-priority work."},
	cResumes:            {func(m *MetricsSnapshot) *uint64 { return &m.Resumes }, "regvd_resumes_total", "Preempted jobs re-dispatched (from checkpoint when stored)."},
	cJournalReplayed:    {func(m *MetricsSnapshot) *uint64 { return &m.JournalReplayed }, "regvd_journal_replayed_total", "Jobs reconstructed from the write-ahead journal at startup."},
	cCheckpointsWritten: {func(m *MetricsSnapshot) *uint64 { return &m.CheckpointsWritten }, "regvd_checkpoints_written_total", "Durable checkpoints of in-flight simulations."},
	cResultsPersisted:   {func(m *MetricsSnapshot) *uint64 { return &m.ResultsPersisted }, "regvd_results_persisted_total", "Results written to the on-disk store."},
	cDiskHits:           {func(m *MetricsSnapshot) *uint64 { return &m.DiskHits }, "regvd_disk_hits_total", "Cache fills served from the on-disk store."},
}

// tenantRows are the tenant counters the Prometheus exposition renders:
// the sched.QueueStat field each reads and its family. Preemptions and
// resumes are shown per tenant only by /v1/queues and the JSON
// breakdown.
var tenantRows = []struct {
	field      func(*sched.QueueStat) *uint64
	name, help string
}{
	{func(t *sched.QueueStat) *uint64 { return &t.Submitted }, "regvd_tenant_submitted_total", "Per-tenant submissions accepted past validation."},
	{func(t *sched.QueueStat) *uint64 { return &t.Completed }, "regvd_tenant_completed_total", "Per-tenant submissions that returned a result."},
	{func(t *sched.QueueStat) *uint64 { return &t.Failed }, "regvd_tenant_failed_total", "Per-tenant submissions that returned an error."},
	{func(t *sched.QueueStat) *uint64 { return &t.Shed }, "regvd_tenant_shed_total", "Per-tenant submissions refused by admission control."},
	{func(t *sched.QueueStat) *uint64 { return &t.QuotaRejected }, "regvd_tenant_quota_rejected_total", "Per-tenant submissions refused by quota or admission policy."},
}

// count bumps pool counter c and n, the tenant row's copy of it (see
// sched.Counts).
func (p *Pool) count(c counter, n *atomic.Uint64) {
	p.m[c].Add(1)
	n.Add(1)
}

// QueuesSnapshot is the GET /v1/queues body: whether unknown tenants
// are refused, whether checkpoint preemption is armed, and every tenant
// queue, sorted by tenant name.
type QueuesSnapshot struct {
	Strict     bool              `json:"strict"`
	Preemption bool              `json:"preemption"`
	Queues     []sched.QueueStat `json:"queues"`
}

// Queues snapshots the scheduler's tenant table.
func (p *Pool) Queues() QueuesSnapshot {
	return QueuesSnapshot{Strict: p.sched.Strict(), Preemption: p.store != nil, Queues: p.sched.Snapshot()}
}

// MetricsSnapshot is the point-in-time view /metrics serves. The
// counters satisfy two invariants once the pool is idle, which the
// chaos suite asserts even under injected errors, panics and shedding:
//
//	submitted == completed + failed
//	submitted == executed + deduped + cache_hits
//
// executed, deduped and cache_hits are the result cache's misses,
// dedups and hits: every submit past admission makes one Cache.Do
// call. A miss is counted when its fill *starts*, so both invariants
// survive a fill that panics out of the cache; shed submissions count
// as executed + failed.
type MetricsSnapshot struct {
	Workers    int    `json:"workers"`
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Executed   uint64 `json:"executed"`
	Deduped    uint64 `json:"deduped"`
	CacheHits  uint64 `json:"cache_hits"`
	QueueDepth int64  `json:"queue_depth"`
	Running    int64  `json:"running"`
	// LatencyP50MS and LatencyP99MS estimate submit latency from the
	// jobs.submit span's histogram in SpanDurations, the way
	// Prometheus's histogram_quantile does, so they are exact only to
	// the bucket layout (obs.DefLatencyBuckets). Both are zero without a
	// tracer.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`

	// PanicsRecovered counts panics the containment barriers turned
	// into errors; any non-zero value with the daemon still serving is
	// the containment working.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// Shed counts submissions refused by admission control (HTTP 429).
	Shed uint64 `json:"shed"`
	// QuotaRejected counts submissions refused by per-tenant quota or
	// admission policy (HTTP 403). Unlike every other counter it can
	// exceed the sum over Tenants: a refusal that leaves its tenant
	// without a row (an unknown tenant under strict admission, or a new
	// one once the table holds sched.MaxTenants) is counted here only.
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

	ResultCache CacheStats `json:"result_cache"`

	// Tenants is the scheduler's tenant table, one row per tenant (also
	// served by GET /v1/queues). The table is bounded at
	// sched.MaxTenants rows, which bounds the per-tenant series.
	Tenants map[string]sched.QueueStat `json:"tenants,omitempty"`

	// SpanDurations is the tracer's per-span-name duration histogram
	// table (seconds), present only when tracing is on. Shipped whole
	// so the cluster router can aggregate it: bucket counts sum across
	// shards, quantiles do not.
	SpanDurations map[string]obs.HistogramSnapshot `json:"span_durations,omitempty"`
}

// Metrics snapshots the pool counters.
func (p *Pool) Metrics() MetricsSnapshot {
	queues := p.sched.Snapshot()
	m := MetricsSnapshot{
		Workers:       p.workers,
		QueueDepth:    int64(p.sched.Queued()),
		Running:       int64(p.sched.Running()),
		UptimeSeconds: time.Since(p.started).Seconds(),
		ResultCache:   p.results.Stats(),
		Tenants:       make(map[string]sched.QueueStat, len(queues)),
		SpanDurations: p.tracer.Histograms(),
	}
	for c, row := range counterRows {
		*row.field(&m) = p.m[c].Load()
	}
	m.Executed, m.Deduped, m.CacheHits = m.ResultCache.Misses, m.ResultCache.Dedups, m.ResultCache.Hits
	lat := m.SpanDurations[submitSpan]
	m.LatencyP50MS, m.LatencyP99MS = lat.Quantile(0.5)*1000, lat.Quantile(0.99)*1000
	for _, ts := range queues {
		m.Tenants[ts.Tenant] = ts
	}
	return m
}
