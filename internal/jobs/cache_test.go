package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache[string, int]()
	ctx := context.Background()
	calls := 0
	fill := func() (int, error) { calls++; return 42, nil }

	v, out, err := c.Do(ctx, "k", fill)
	if err != nil || v != 42 || out != Miss {
		t.Fatalf("first Do = (%d, %v, %v), want (42, Miss, nil)", v, out, err)
	}
	v, out, err = c.Do(ctx, "k", fill)
	if err != nil || v != 42 || out != Hit {
		t.Fatalf("second Do = (%d, %v, %v), want (42, Hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Errorf("fill ran %d times, want 1", calls)
	}
	if got, ok := c.Get("k"); !ok || got != 42 {
		t.Errorf("Get = (%d, %v), want (42, true)", got, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("Get on absent key reported ok")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[string, int]()
	const waiters = 16
	var fills atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() (int, error) {
				fills.Add(1)
				<-gate // hold the flight open until everyone queued
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = (%d, %v), want (7, nil)", v, err)
			}
		}()
	}
	// Wait until one filler is inside fn and the rest are parked on the
	// flight, then release.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d dedups after 5s", c.Stats().Dedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Dedups != waiters-1 {
		t.Errorf("dedups = %d, want %d", st.Dedups, waiters-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache[string, int]()
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("failed fill left a cached entry")
	}
	v, out, err := c.Do(ctx, "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || out != Miss {
		t.Errorf("retry Do = (%d, %v, %v), want (9, Miss, nil)", v, out, err)
	}
	if st := c.Stats(); st.Failures != 1 {
		t.Errorf("failures = %d, want 1", st.Failures)
	}
}

// TestCacheBoundedFlood: 100k distinct keys keep the cache at its
// bound, each fill past the bound evicts exactly one completed entry,
// an in-flight fill held open across the flood is never evicted (its
// joiners still dedup onto it), and an evicted key refills as a Miss.
func TestCacheBoundedFlood(t *testing.T) {
	const keys = 100_000
	c := NewCache[int, int]()
	ctx := context.Background()
	inFill, release := make(chan struct{}), make(chan struct{})
	held := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(ctx, -1, func() (int, error) {
			close(inFill)
			<-release
			return 7, nil
		})
		held <- v
	}()
	<-inFill

	for k := 0; k < keys; k++ {
		if _, out, err := c.Do(ctx, k, func() (int, error) { return k, nil }); err != nil || out != Miss {
			t.Fatalf("Do(%d) = (%v, %v), want (Miss, nil)", k, out, err)
		}
	}
	st := c.Stats()
	// The held flight occupies one of the bound's slots throughout.
	if st.Entries > CacheEntries || st.Evictions != keys-(CacheEntries-1) {
		t.Fatalf("after flood: entries %d (bound %d), evictions %d, want %d",
			st.Entries, CacheEntries, st.Evictions, keys-(CacheEntries-1))
	}

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(ctx, -1, func() (int, error) { return 0, errors.New("joiner filled") })
			if err != nil || v != 7 || out != Deduped {
				t.Errorf("joiner Do = (%d, %v, %v), want (7, Deduped, nil)", v, out, err)
			}
		}()
	}
	for c.Stats().Dedups < joiners {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if v := <-held; v != 7 {
		t.Fatalf("held fill returned %d", v)
	}

	if _, out, _ := c.Do(ctx, 0, func() (int, error) { return 0, nil }); out != Miss {
		t.Errorf("evicted key refilled as %v, want Miss", out)
	}
}

// TestCacheClockSecondChance: a hit sets the entry's reference bit, so
// the CLOCK hand spares it once and evicts the next unreferenced entry.
func TestCacheClockSecondChance(t *testing.T) {
	c := newCache[int, int](4)
	ctx := context.Background()
	fill := func() (int, error) { return 1, nil }
	for k := 0; k < 4; k++ {
		c.Do(ctx, k, fill)
	}
	if _, out, _ := c.Do(ctx, 0, fill); out != Hit {
		t.Fatalf("Do(0) = %v, want Hit", out)
	}
	c.Do(ctx, 4, fill)
	if _, ok := c.Get(0); !ok {
		t.Error("referenced entry 0 was evicted")
	}
	if _, ok := c.Get(1); ok {
		t.Error("unreferenced entry 1 survived; the hand should have evicted it")
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 4 entries, 1 eviction", st)
	}
}

// TestCacheClockKeepsNewFills: a completed fill joins the back of the
// clock, so unreferenced values go oldest first, and a fill never
// evicts its own value, even when every older value was referenced.
func TestCacheClockKeepsNewFills(t *testing.T) {
	c := newCache[int, int](4)
	ctx := context.Background()
	fill := func() (int, error) { return 1, nil }
	cached := func() []int { // the keys held, without touching reference bits
		c.mu.Lock()
		defer c.mu.Unlock()
		var keys []int
		for k := 0; k < 8; k++ {
			if _, ok := c.entries[k]; ok {
				keys = append(keys, k)
			}
		}
		return keys
	}
	for k := 0; k < 6; k++ {
		c.Do(ctx, k, fill)
	}
	if got := fmt.Sprint(cached()); got != "[2 3 4 5]" {
		t.Errorf("after six fills: cached %s, want [2 3 4 5] (oldest evicted first)", got)
	}
	for _, k := range []int{2, 3, 4, 5} {
		c.Get(k)
	}
	c.Do(ctx, 6, fill)
	if got := fmt.Sprint(cached()); got != "[3 4 5 6]" {
		t.Errorf("after a fill with every older value referenced: cached %s, want [3 4 5 6]", got)
	}
	c = newCache[int, int](1)
	c.Do(ctx, 0, fill)
	c.Get(0)
	c.Do(ctx, 1, fill)
	if got := fmt.Sprint(cached()); got != "[1]" {
		t.Errorf("bound 1, after a fill past a referenced value: cached %s, want [1]", got)
	}
}

func TestCacheWaiterHonoursContext(t *testing.T) {
	c := NewCache[string, int]()
	inFill := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(inFill)
		<-release
		return 1, nil
	})
	<-inFill
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, out, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.DeadlineExceeded) || out != Deduped {
		t.Errorf("waiter Do = (%v, %v), want (Deduped, deadline exceeded)", out, err)
	}
	close(release)
}
