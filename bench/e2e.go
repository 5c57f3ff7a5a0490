package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
)

// setUp boots a cluster on dir and brings it to the state the timed
// phase starts from: prefilled (hits, mixed), restarted on the same
// data dirs so the next requests replay the journal and hit disk
// (mixed), and warmed up. It returns the prefill replies.
func setUp(ctx context.Context, dir string, traced bool, in *inputs, hc *http.Client) (c *benchCluster, prefill []*jobs.Result, err error) {
	callers := runtime.NumCPU()
	var cl *client.Client
	submit := func(j jobs.Job) (*jobs.Result, error) { return cl.Submit(ctx, j) }
	if c, err = bootCluster(dir, traced, hc); err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil && c != nil {
			c.close()
			c = nil
		}
	}()
	cl = newClient(c.url, hc)
	if prefill, err = fanOut(in.prefill, callers, submit); err != nil {
		return c, nil, err
	}
	if in.restart {
		err = c.close()
		c = nil
		if err != nil {
			return nil, nil, err
		}
		if c, err = bootCluster(dir, traced, hc); err != nil {
			return nil, nil, err
		}
		cl = newClient(c.url, hc)
	}
	_, err = fanOut(in.warmup, callers, submit)
	return c, prefill, err
}

// cpuTime is the CPU time, user and system, the process has used so
// far: client, router, shards and simulator together. Unlike wall time
// it does not grow while the host withholds its CPUs from the process,
// which on a shared host is the largest source of run-to-run noise.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runE2E is the end-to-end run: set up cfg.sizes.setups times
// (setup_s is the median of their CPU times), drive the whole timed
// sequence through the last cluster's router in a closed loop, then
// check the replies.
func runE2E(ctx context.Context, cfg runConfig, in *inputs) (*report, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var (
		c                   *benchCluster
		prefill             []*jobs.Result
		setupCPU, setupWall []float64
	)
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for k := 0; k < cfg.sizes.setups; k++ {
		if c != nil {
			err := c.close()
			c = nil
			if err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(cfg.tmp, "e2e-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		if c, prefill, err = setUp(ctx, dir, true, in, hc); err != nil {
			return nil, err
		}
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (cpu1 - cpu0).Seconds())
	}
	// Every prefill reply is checked; for hits that is every distinct
	// result the timed phase serves.
	checks := samplesOf(in.prefill, prefill)
	prefill = nil

	cl := newClient(c.url, hc)
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	st := closedLoop(in, runtime.NumCPU(), time.Now().Add(cfg.backstop()), func(_ int, r request, async bool) (*jobs.Result, error) {
		return send(ctx, cl, r.job, async)
	})
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	p50, p99 := quantile(st.lat, 0.50), quantile(st.lat, 0.99)
	latencySamples, sequence := len(st.lat), len(in.seq)
	// The inputs and latency records are the benchmark's memory, not the
	// system's: drop them before reading the live heap.
	in.table, in.seq, in.prefill, in.warmup = nil, nil, nil, nil
	st.lat = nil
	runtime.GC()
	runtime.ReadMemStats(&live)
	retries := cl.Metrics().Retries
	err = c.close()
	c = nil
	if err != nil {
		return nil, err
	}

	ok := float64(max(st.ok, 1))
	r := &report{attempted: st.attempted, failed: st.failed}
	r.add("setup_s", median(setupCPU), "s")
	r.add("cpu_ms_per_req", float64(cpu1-cpu0)/float64(time.Millisecond)/ok, "ms")
	r.add("allocs_per_req", float64(after.Mallocs-before.Mallocs)/ok, "allocs")
	r.add("heap_live_mb", float64(live.HeapAlloc)/(1<<20), "MiB")
	r.wall = []metric{
		{"setup_wall_s", median(setupWall), "s"},
		{"throughput_rps", float64(st.ok) / st.wall.Seconds(), "req/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_p99_ms", p99, "ms"},
	}

	checks.merge(st.samples)
	checked, mismatched, err := check(ctx, checks)
	if err != nil {
		return nil, err
	}
	r.checked, r.mismatched = checked, mismatched+st.badIDs
	r.info = map[string]any{
		"sequence":        sequence,
		"cut_short":       st.attempted < sequence,
		"completed":       st.ok,
		"async":           st.async,
		"latency_samples": latencySamples,
		"client_retries":  retries,
		"wall_s":          st.wall.Seconds(),
		"setups_cpu_s":    setupCPU,
		"setups_wall_s":   setupWall,
	}
	if st.firstErr != nil {
		r.info["first_error"] = st.firstErr.Error()
	}
	return r, nil
}
