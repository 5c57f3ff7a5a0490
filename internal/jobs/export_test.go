package jobs

// SetResultCacheBound rebuilds p's result cache with a bound of n
// entries, so external tests can drive eviction without thousands of
// simulations. Call it before the pool serves any submission.
func SetResultCacheBound(p *Pool, n int) { p.results = newCache[string, *Result](n) }

// SetShedDepth lowers p's shed depth from ShedDepth to n, so external
// tests can drive shedding with a handful of queued tasks. Call it
// before the pool serves any submission.
func SetShedDepth(p *Pool, n int) { p.sched.SetCapacity(n) }
