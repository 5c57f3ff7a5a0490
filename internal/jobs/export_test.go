package jobs

// SetResultCacheBound rebuilds p's result cache with a bound of n
// entries, so external tests can drive eviction without thousands of
// simulations. Call it before the pool serves any submission.
func SetResultCacheBound(p *Pool, n int) { p.results = newCache[string, *Result](n) }
