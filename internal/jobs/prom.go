package jobs

import (
	"sort"

	"regvirt/internal/jobs/sched"
	"regvirt/internal/obs"
)

// Prometheus rendering of MetricsSnapshot. The same renderer serves
// the single-node daemon (one unlabelled snapshot) and the cluster
// router (one snapshot per shard, each labelled shard="name"):
// WriteProm takes all snapshots at once and emits family by family,
// because the exposition format requires every series of one metric
// name to be consecutive — per-shard sequential rendering would
// interleave families and fail promtool.

// PromShard is one labelled snapshot to render. Labels must be unique
// across the shards of one WriteProm call (or empty, with exactly one
// shard) or the exposition would carry duplicate series.
type PromShard struct {
	Labels []obs.Label
	M      MetricsSnapshot
}

// WriteProm renders the snapshots as Prometheus text exposition
// (version 0.0.4) into w. Counter/gauge semantics follow the snapshot
// field docs; latency is exposed only as histograms, whose bucket
// counts aggregate across shards.
func WriteProm(w *obs.PromWriter, shards ...PromShard) {
	// Each helper renders one family (w.Counter or w.Gauge as add): a
	// series per shard, per cache or per tenant.
	type emit func(name, help string, v float64, labels ...obs.Label)
	family := func(add emit, name, help string, get func(MetricsSnapshot) float64) {
		for _, s := range shards {
			add(name, help, get(s.M), s.Labels...)
		}
	}
	counters := func(from, to counter) {
		for _, row := range counterRows[from:to] {
			family(w.Counter, row.name, row.help, func(m MetricsSnapshot) float64 { return float64(*row.field(&m)) })
		}
	}
	caches := func(add emit, name, help string, get func(CacheStats) float64) {
		for _, s := range shards {
			add(name, help, get(s.M.ResultCache), withLabel(s.Labels, "cache", "result")...)
		}
	}
	tenants := func(add emit, name, help string, get func(sched.QueueStat) float64) {
		for _, s := range shards {
			for _, t := range sortedTenants(s.M.Tenants) {
				add(name, help, get(s.M.Tenants[t]), withLabel(s.Labels, "tenant", t)...)
			}
		}
	}

	family(w.Gauge, "regvd_workers", "Worker goroutines serving the pool.",
		func(m MetricsSnapshot) float64 { return float64(m.Workers) })
	family(w.Gauge, "regvd_uptime_seconds", "Seconds since the pool started.",
		func(m MetricsSnapshot) float64 { return m.UptimeSeconds })
	counters(cSubmitted, cJournalReplayed)
	family(w.Gauge, "regvd_queue_depth", "Tasks enqueued but not yet picked up.",
		func(m MetricsSnapshot) float64 { return float64(m.QueueDepth) })
	family(w.Gauge, "regvd_running", "Tasks executing on a worker.",
		func(m MetricsSnapshot) float64 { return float64(m.Running) })
	counters(cJournalReplayed, numCounters)

	// The result cache, one family per counter. Its hits, misses and
	// dedups are the submits' outcomes: the JSON's cache_hits, executed
	// and deduped.
	caches(w.Counter, "regvd_cache_hits_total", "Cache.Do calls answered from a completed entry.",
		func(c CacheStats) float64 { return float64(c.Hits) })
	caches(w.Counter, "regvd_cache_misses_total", "Cache.Do calls that executed the fill.",
		func(c CacheStats) float64 { return float64(c.Misses) })
	caches(w.Counter, "regvd_cache_dedups_total", "Cache.Do calls that joined an in-flight fill.",
		func(c CacheStats) float64 { return float64(c.Dedups) })
	caches(w.Counter, "regvd_cache_failures_total", "Cache fills that failed (evicted, not cached).",
		func(c CacheStats) float64 { return float64(c.Failures) })
	caches(w.Counter, "regvd_cache_evictions_total", "Completed entries evicted to keep the cache within its bound.",
		func(c CacheStats) float64 { return float64(c.Evictions) })
	caches(w.Gauge, "regvd_cache_entries", "Completed entries held by the cache.",
		func(c CacheStats) float64 { return float64(c.Entries) })

	// Per-tenant series, one per row of the scheduler's tenant table,
	// which sched.MaxTenants bounds.
	for _, row := range tenantRows {
		tenants(w.Counter, row.name, row.help, func(t sched.QueueStat) float64 { return float64(*row.field(&t)) })
	}
	tenants(w.Gauge, "regvd_tenant_queued", "Per-tenant tasks waiting in the scheduler.",
		func(t sched.QueueStat) float64 { return float64(t.Queued) })
	tenants(w.Gauge, "regvd_tenant_running", "Per-tenant tasks executing on a worker.",
		func(t sched.QueueStat) float64 { return float64(t.Running) })

	// Span duration histograms from the tracer — the one latency
	// signal, submits included (span="jobs.submit"); bucket counts sum
	// across shards and over time.
	for _, s := range shards {
		for _, name := range sortedSpanNames(s.M.SpanDurations) {
			w.Histogram("regvd_span_duration_seconds", "Span durations by span name, in seconds.",
				s.M.SpanDurations[name], withLabel(s.Labels, "span", name)...)
		}
	}
}

// PromMetrics renders one pool's snapshot — the single-node /metrics
// ?format=prom body.
func PromMetrics(p *Pool) []byte {
	var w obs.PromWriter
	WriteProm(&w, PromShard{M: p.Metrics()})
	return w.Bytes()
}

// withLabel copies base and appends one label (no aliasing: base may
// be shared across families).
func withLabel(base []obs.Label, name, value string) []obs.Label {
	out := make([]obs.Label, 0, len(base)+1)
	out = append(out, base...)
	return append(out, obs.Label{Name: name, Value: value})
}

func sortedTenants(m map[string]sched.QueueStat) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedSpanNames(m map[string]obs.HistogramSnapshot) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
