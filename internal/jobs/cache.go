// Package jobs is the simulation job-execution subsystem: a Job spec
// naming a workload (or inline kernel assembly) plus the register-file
// configuration to simulate it under, a bounded worker pool with
// per-job deadlines, a content-addressed result cache with
// singleflight deduplication, and an HTTP/JSON surface (cmd/regvd).
// The same pool and cache back cmd/experiments -j and the memoizing
// experiments.Runner, so every entry point shares one notion of "this
// configuration has already been simulated".
package jobs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Cache.Do call was satisfied.
type Outcome int

// Do outcomes.
const (
	// Miss means this call executed the fill function.
	Miss Outcome = iota
	// Hit means a previously completed value was reused.
	Hit
	// Deduped means the call joined a computation already in flight.
	Deduped
)

// CacheEntries bounds every Cache. Inline kernels make the job key
// space unbounded, so completed values are evicted past this many
// entries; the pool's on-disk store is the backstop for an evicted
// result.
const CacheEntries = 4096

// Cache is a concurrency-safe memoization cache with singleflight
// deduplication: concurrent Do calls for the same key run the fill
// function exactly once and share its value. Each completed fill brings
// the cache back to at most CacheEntries entries by evicting older
// completed values in CLOCK order (a hit sets the entry's reference
// bit; the hand clears set bits and evicts the first clear one), then
// joins the back of the clock itself: a fill never evicts its own
// value, and a new value is evicted only after every value ahead of it
// has been evicted or spared. In-flight fills are never evicted, so
// singleflight holds at any size. Failures are never cached, so a later
// call retries. Cached values are shared by reference and must be
// treated as immutable by every caller.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	bound   int
	entries map[K]*flight[K, V]
	// clock is the completed entries in CLOCK order, a FIFO queue: the
	// hand takes from the front, and a new or spared entry joins the back.
	clock []*flight[K, V]

	hits, misses, dedups, failures, evictions atomic.Uint64
}

type flight[K comparable, V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
	key  K
	ref  bool // CLOCK reference bit, guarded by Cache.mu
}

// NewCache returns an empty cache bounded at CacheEntries.
func NewCache[K comparable, V any]() *Cache[K, V] {
	return newCache[K, V](CacheEntries)
}

func newCache[K comparable, V any](bound int) *Cache[K, V] {
	return &Cache[K, V]{bound: bound, entries: make(map[K]*flight[K, V])}
}

// evictLocked brings the cache back within its bound before a
// completed fill joins the clock. The hand takes entries from the
// front: a set reference bit is cleared and the entry goes to the back,
// spared once; the first clear one is evicted. In-flight fills are not
// in the clock.
func (c *Cache[K, V]) evictLocked() {
	for len(c.entries) > c.bound && len(c.clock) > 0 {
		f := c.clock[0]
		c.clock[0] = nil
		c.clock = c.clock[1:]
		if f.ref {
			f.ref = false
			c.clock = append(c.clock, f)
			continue
		}
		delete(c.entries, f.key)
		c.evictions.Add(1)
	}
}

// Do returns the cached value for key, joining an in-flight fill if one
// is running, or executing fn itself otherwise. Waiters abandon the
// flight when ctx ends (the computation itself keeps running for the
// other callers; it is the filler's own fn that must observe
// cancellation if the fill should stop).
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if f, ok := c.entries[key]; ok {
		f.ref = true
		c.mu.Unlock()
		select {
		case <-f.done: // already complete
			c.hits.Add(1)
			return f.val, Hit, f.err
		default:
		}
		c.dedups.Add(1)
		select {
		case <-f.done:
			return f.val, Deduped, f.err
		case <-ctx.Done():
			var zero V
			return zero, Deduped, ctx.Err()
		}
	}
	f := &flight[K, V]{done: make(chan struct{}), key: key}
	c.entries[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	// The eviction and the done-close run in a defer so a panicking fn
	// cannot poison the cache: the flight is failed and evicted before
	// the panic unwinds, waiters are released with an error (never a
	// zero value), and a later Do retries. The panic itself keeps
	// propagating to the caller's containment layer. A successful fill
	// evicts older values to stay bounded, then joins the clock.
	completed := false
	defer func() {
		if !completed {
			f.err = fmt.Errorf("jobs: cache fill for %v panicked", key)
		}
		c.mu.Lock()
		if f.err != nil {
			c.failures.Add(1)
			delete(c.entries, key)
		} else {
			c.evictLocked()
			c.clock = append(c.clock, f)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	completed = true
	return f.val, Miss, f.err
}

// Get returns the completed value for key, if any. In-flight fills do
// not count: Get never blocks.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	f, ok := c.entries[key]
	if ok {
		f.ref = true
	}
	c.mu.Unlock()
	if ok {
		select {
		case <-f.done:
			if f.err == nil {
				return f.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Dedups    uint64 `json:"dedups"`
	Failures  uint64 `json:"failures"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// Stats snapshots the cache counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		Failures:  c.failures.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}
