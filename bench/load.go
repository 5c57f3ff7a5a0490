package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
)

// sampleEvery is the oracle's sampling rate over timed replies.
const sampleEvery = 16

// pollEvery is the async callers' Wait poll interval.
const pollEvery = time.Millisecond

// newHTTPClient is the benchmark's one client connection pool: at most
// nproc connections per host, matching its nproc callers.
func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// newClient is a retrying job client on the shared pool. The tenant is
// pinned empty so REGVD_TENANT in the environment cannot leak into the
// load; jitter is seeded so retries, if any, repeat.
func newClient(base string, hc *http.Client) *client.Client {
	return client.New(base, client.WithHTTPClient(hc), client.WithTenant(""), client.WithSeed(1))
}

// send submits one job the way the workload says: sync, or async
// followed by Wait.
func send(ctx context.Context, c *client.Client, j jobs.Job, async bool) (*jobs.Result, error) {
	if !async {
		return c.Submit(ctx, j)
	}
	id, err := c.SubmitAsync(ctx, j)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id, pollEvery)
}

// digest is the SHA-256 of a result's canonical bytes (Result.JSON)
// without the per-response tenant stamp; cached and persisted results
// are tenantless, byte for byte.
func digest(r *jobs.Result) [32]byte {
	cp := *r
	cp.Tenant = ""
	return sha256.Sum256(cp.JSON())
}

// samples are the replies the oracle checks: per sampled key, the job
// and how many replies carried each distinct digest. Identical replies
// to one key are kept once, so a long hits run holds 64 entries.
type samples map[string]*keySamples

type keySamples struct {
	req     request
	digests map[[32]byte]int
}

func (s samples) add(r request, res *jobs.Result) {
	k := s[r.key]
	if k == nil {
		k = &keySamples{req: r, digests: map[[32]byte]int{}}
		s[r.key] = k
	}
	k.digests[digest(res)]++
}

func (s samples) merge(o samples) {
	for key, ko := range o {
		k := s[key]
		if k == nil {
			s[key] = ko
			continue
		}
		for d, n := range ko.digests {
			k.digests[d] += n
		}
	}
}

func samplesOf(reqs []request, replies []*jobs.Result) samples {
	s := samples{}
	for i, r := range reqs {
		s.add(r, replies[i])
	}
	return s
}

// loopStats is what one closed loop observed.
type loopStats struct {
	attempted, ok, failed int
	async                 int
	badIDs                int       // replies whose ID is not the job's key
	lat                   []float64 // ms per successful request
	samples               samples   // every sampleEvery-th reply
	firstErr              error
	wall                  time.Duration
}

func (st *loopStats) record(r request, async bool, res *jobs.Result, err error, ms float64, keep bool) {
	st.attempted++
	if async {
		st.async++
	}
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("%s: %w", r.key, err)
		}
		return
	}
	st.ok++
	st.lat = append(st.lat, ms)
	if res.ID != r.key {
		st.badIDs++
	}
	if keep {
		st.samples.add(r, res)
	}
}

func (st *loopStats) merge(o *loopStats) {
	st.attempted += o.attempted
	st.ok += o.ok
	st.failed += o.failed
	st.async += o.async
	st.badIDs += o.badIDs
	st.lat = append(st.lat, o.lat...)
	st.samples.merge(o.samples)
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// closedLoop runs the timed sequence through callers goroutines, each
// sending its next request only after the previous reply, until the
// sequence ends or until passes. In-flight requests finish; wall
// covers them. submit is the entry point under test; it gets the
// sequence position too.
func closedLoop(in *inputs, callers int, until time.Time, submit func(i int, r request, async bool) (*jobs.Result, error)) loopStats {
	var next atomic.Int64
	parts := make([]loopStats, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		parts[w].samples = samples{}
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.seq) || !time.Now().Before(until) {
					return
				}
				r, async := in.jobAt(i)
				t0 := time.Now()
				res, err := submit(i, r, async)
				st.record(r, async, res, err, msSince(t0), i%sampleEvery == 0)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := loopStats{samples: samples{}}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.wall = time.Since(start)
	return out
}

// forEach calls fn(i) for every i in [0, n) on workers goroutines and
// returns the first error; a worker stops at its first error.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[w] = fn(i); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut sends reqs sync through callers goroutines and returns the
// replies in order. Set-up traffic: any failure or wrong ID fails it.
func fanOut(reqs []request, callers int, submit func(jobs.Job) (*jobs.Result, error)) ([]*jobs.Result, error) {
	out := make([]*jobs.Result, len(reqs))
	err := forEach(len(reqs), callers, func(i int) error {
		res, err := submit(reqs[i].job)
		if err == nil && res.ID != reqs[i].key {
			err = fmt.Errorf("reply ID %q, want %q", res.ID, reqs[i].key)
		}
		if err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	return out, err
}

// check is the output oracle: it re-runs each sampled job in-process
// with jobs.Execute and byte-compares the Result.JSON digest with every
// sampled reply's. Each key runs once.
func check(ctx context.Context, s samples) (checked, mismatched int, err error) {
	keys := make([]*keySamples, 0, len(s))
	for _, k := range s {
		keys = append(keys, k)
	}
	want := make([][32]byte, len(keys))
	err = forEach(len(keys), runtime.NumCPU(), func(i int) error {
		res, err := jobs.Execute(ctx, keys[i].req.job)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", keys[i].req.key, err)
		}
		want[i] = digest(res)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i, k := range keys {
		for d, n := range k.digests {
			checked += n
			if d != want[i] {
				mismatched += n
			}
		}
	}
	return checked, mismatched, nil
}
