package jobs

import (
	"sort"

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
	counter := func(name, help string, get func(MetricsSnapshot) float64) {
		for _, s := range shards {
			w.Counter(name, help, get(s.M), s.Labels...)
		}
	}
	gauge := func(name, help string, get func(MetricsSnapshot) float64) {
		for _, s := range shards {
			w.Gauge(name, help, get(s.M), s.Labels...)
		}
	}

	gauge("regvd_workers", "Worker goroutines serving the pool.",
		func(m MetricsSnapshot) float64 { return float64(m.Workers) })
	gauge("regvd_uptime_seconds", "Seconds since the pool started.",
		func(m MetricsSnapshot) float64 { return m.UptimeSeconds })

	counter("regvd_jobs_submitted_total", "Submissions accepted past validation.",
		func(m MetricsSnapshot) float64 { return float64(m.Submitted) })
	counter("regvd_jobs_completed_total", "Submissions that returned a result.",
		func(m MetricsSnapshot) float64 { return float64(m.Completed) })
	counter("regvd_jobs_failed_total", "Submissions that returned an error.",
		func(m MetricsSnapshot) float64 { return float64(m.Failed) })
	counter("regvd_jobs_executed_total", "Submissions that started a simulation (cache misses).",
		func(m MetricsSnapshot) float64 { return float64(m.Executed) })
	counter("regvd_jobs_deduped_total", "Submissions that joined an in-flight run.",
		func(m MetricsSnapshot) float64 { return float64(m.Deduped) })
	counter("regvd_jobs_cache_hits_total", "Submissions answered from the completed-result cache.",
		func(m MetricsSnapshot) float64 { return float64(m.CacheHits) })
	counter("regvd_jobs_shed_total", "Submissions refused by admission control (HTTP 429).",
		func(m MetricsSnapshot) float64 { return float64(m.Shed) })
	counter("regvd_jobs_quota_rejected_total", "Submissions refused by tenant quota or admission policy (HTTP 403).",
		func(m MetricsSnapshot) float64 { return float64(m.QuotaRejected) })
	counter("regvd_panics_recovered_total", "Panics contained by a worker or submit barrier.",
		func(m MetricsSnapshot) float64 { return float64(m.PanicsRecovered) })
	counter("regvd_preemptions_total", "Running jobs checkpoint-interrupted for higher-priority work.",
		func(m MetricsSnapshot) float64 { return float64(m.Preemptions) })
	counter("regvd_resumes_total", "Preempted jobs re-dispatched (from checkpoint when stored).",
		func(m MetricsSnapshot) float64 { return float64(m.Resumes) })

	gauge("regvd_queue_depth", "Tasks enqueued but not yet picked up.",
		func(m MetricsSnapshot) float64 { return float64(m.QueueDepth) })
	gauge("regvd_running", "Tasks executing on a worker.",
		func(m MetricsSnapshot) float64 { return float64(m.Running) })
	for _, s := range shards {
		w.Histogram("regvd_submit_latency_seconds", "Submit latency (hits, dedups and fills), in seconds.",
			s.M.Latency, s.Labels...)
	}

	counter("regvd_async_evicted_total", "Async status records evicted by TTL or capacity.",
		func(m MetricsSnapshot) float64 { return float64(m.JobsEvicted) })
	gauge("regvd_async_tracked", "Async status registry size.",
		func(m MetricsSnapshot) float64 { return float64(m.AsyncTracked) })

	counter("regvd_journal_replayed_total", "Jobs reconstructed from the write-ahead journal at startup.",
		func(m MetricsSnapshot) float64 { return float64(m.JournalReplayed) })
	counter("regvd_checkpoints_written_total", "Durable checkpoints of in-flight simulations.",
		func(m MetricsSnapshot) float64 { return float64(m.CheckpointsWritten) })
	counter("regvd_results_persisted_total", "Results written to the on-disk store.",
		func(m MetricsSnapshot) float64 { return float64(m.ResultsPersisted) })
	counter("regvd_disk_hits_total", "Cache fills served from the on-disk store.",
		func(m MetricsSnapshot) float64 { return float64(m.DiskHits) })
	counter("regvd_scrub_scanned_total", "Files examined by the at-rest integrity scrubber.",
		func(m MetricsSnapshot) float64 { return float64(m.ScrubScanned) })
	counter("regvd_scrub_corrupt_total", "Files that failed at-rest envelope verification.",
		func(m MetricsSnapshot) float64 { return float64(m.ScrubCorrupt) })
	counter("regvd_scrub_repaired_total", "Corrupt files self-healed by the scrubber (refetch, re-simulate, or safe drop).",
		func(m MetricsSnapshot) float64 { return float64(m.ScrubRepaired) })

	// Internal cache tiers, one family per counter with a cache label.
	cacheStat := func(name, help string, get func(CacheStats) float64) {
		for _, s := range shards {
			for _, c := range []struct {
				which string
				st    CacheStats
			}{{"result", s.M.ResultCache}, {"kernel", s.M.KernelCache}} {
				w.Counter(name, help, get(c.st), withLabel(s.Labels, "cache", c.which)...)
			}
		}
	}
	cacheStat("regvd_cache_hits_total", "Cache.Do calls answered from a completed entry.",
		func(c CacheStats) float64 { return float64(c.Hits) })
	cacheStat("regvd_cache_misses_total", "Cache.Do calls that executed the fill.",
		func(c CacheStats) float64 { return float64(c.Misses) })
	cacheStat("regvd_cache_dedups_total", "Cache.Do calls that joined an in-flight fill.",
		func(c CacheStats) float64 { return float64(c.Dedups) })
	cacheStat("regvd_cache_failures_total", "Cache fills that failed (evicted, not cached).",
		func(c CacheStats) float64 { return float64(c.Failures) })
	cacheStat("regvd_cache_evictions_total", "Completed entries evicted to keep the cache within its bound.",
		func(c CacheStats) float64 { return float64(c.Evictions) })
	for _, s := range shards {
		for _, c := range []struct {
			which string
			st    CacheStats
		}{{"result", s.M.ResultCache}, {"kernel", s.M.KernelCache}} {
			w.Gauge("regvd_cache_entries", "Completed entries held by the cache.",
				float64(c.st.Entries), withLabel(s.Labels, "cache", c.which)...)
		}
	}

	// Per-tenant counters. The table is bounded at 128 tenants; the
	// "~overflow" row aggregates the rest, and the fold counter below
	// says how much attribution it absorbed.
	gauge("regvd_tenants_tracked", "Per-tenant counter rows (including ~overflow once live).",
		func(m MetricsSnapshot) float64 { return float64(m.TenantsTracked) })
	counter("regvd_tenant_overflow_folds_total", "Counter updates folded into the ~overflow row because the tenant table was full.",
		func(m MetricsSnapshot) float64 { return float64(m.TenantsOverflowed) })
	tenantStat := func(name, help string, get func(TenantSnapshot) float64) {
		for _, s := range shards {
			for _, t := range sortedTenants(s.M.Tenants) {
				w.Counter(name, help, get(s.M.Tenants[t]), withLabel(s.Labels, "tenant", t)...)
			}
		}
	}
	tenantStat("regvd_tenant_submitted_total", "Per-tenant submissions accepted past validation.",
		func(t TenantSnapshot) float64 { return float64(t.Submitted) })
	tenantStat("regvd_tenant_completed_total", "Per-tenant submissions that returned a result.",
		func(t TenantSnapshot) float64 { return float64(t.Completed) })
	tenantStat("regvd_tenant_failed_total", "Per-tenant submissions that returned an error.",
		func(t TenantSnapshot) float64 { return float64(t.Failed) })
	tenantStat("regvd_tenant_shed_total", "Per-tenant submissions refused by admission control.",
		func(t TenantSnapshot) float64 { return float64(t.Shed) })
	tenantStat("regvd_tenant_quota_rejected_total", "Per-tenant submissions refused by quota or admission policy.",
		func(t TenantSnapshot) float64 { return float64(t.QuotaRejected) })
	for _, s := range shards {
		for _, t := range sortedTenants(s.M.Tenants) {
			w.Gauge("regvd_tenant_queued", "Per-tenant tasks waiting in the scheduler.",
				float64(s.M.Tenants[t].Queued), withLabel(s.Labels, "tenant", t)...)
		}
	}
	for _, s := range shards {
		for _, t := range sortedTenants(s.M.Tenants) {
			w.Gauge("regvd_tenant_running", "Per-tenant tasks executing on a worker.",
				float64(s.M.Tenants[t].Running), withLabel(s.Labels, "tenant", t)...)
		}
	}

	// Span duration histograms from the tracer — the aggregatable
	// latency signal (bucket counts sum across shards and over time).
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

func sortedTenants(m map[string]TenantSnapshot) []string {
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
