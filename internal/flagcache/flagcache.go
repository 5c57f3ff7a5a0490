// Package flagcache implements the release flag cache (§7.2): a small
// direct-mapped, PC-indexed cache of pir payloads shared by all warps of
// an SM. Warps within a CTA execute the same code closely in time, so a
// pir fetched and decoded by one warp serves the others from the cache;
// only misses pay the fetch/decode cost. Fig. 13 sweeps the entry count.
package flagcache

import "fmt"

// Stats counts cache events. DecodedPirs is the number of pir
// instructions that had to be fetched and decoded (the dynamic code
// increase of Fig. 13 comes from DecodedPirs plus every pbr).
type Stats struct {
	Probes, Hits, Misses uint64
	Insertions           uint64
}

// Cache is a direct-mapped release-flag cache. A zero-entry cache is
// valid and always misses (the Dynamic-0 configuration).
type Cache struct {
	lines []line
	stats Stats
}

// line is one direct-mapped entry.
type line struct {
	pc    int
	valid bool
	flags uint64
}

// New builds a cache with the given entry count.
func New(entries int) (*Cache, error) {
	cs, err := NewCaches(entries, 1)
	if err != nil {
		return nil, err
	}
	return &cs[0], nil
}

// NewCaches builds n caches of the given entry count from two slabs
// they share: the caches and their lines. A whole-device launch builds
// its SMs' caches this way, once.
func NewCaches(entries, n int) ([]Cache, error) {
	if entries < 0 {
		return nil, fmt.Errorf("flagcache: negative entry count %d", entries)
	}
	cs := make([]Cache, n)
	lines := make([]line, n*entries)
	for i := range cs {
		cs[i].lines = lines[i*entries : (i+1)*entries : (i+1)*entries]
	}
	return cs, nil
}

// Entries returns the configured entry count.
func (c *Cache) Entries() int { return len(c.lines) }

func (c *Cache) index(pc int) int { return pc % len(c.lines) }

// Probe checks whether the pir at pc is cached. On a hit the fetch stage
// skips fetching/decoding the pir and uses the cached payload.
func (c *Cache) Probe(pc int) (flags uint64, hit bool) {
	c.stats.Probes++
	if len(c.lines) == 0 {
		c.stats.Misses++
		return 0, false
	}
	if l := &c.lines[c.index(pc)]; l.valid && l.pc == pc {
		c.stats.Hits++
		return l.flags, true
	}
	c.stats.Misses++
	return 0, false
}

// Insert stores a decoded pir payload, replacing whatever occupied the
// direct-mapped slot.
func (c *Cache) Insert(pc int, flags uint64) {
	if len(c.lines) == 0 {
		return
	}
	c.lines[c.index(pc)] = line{pc: pc, valid: true, flags: flags}
	c.stats.Insertions++
}

// Invalidate clears the cache (kernel switch).
func (c *Cache) Invalidate() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// State is a deep, serializable copy of the cache's mutable state.
type State struct {
	PCs   []int
	Valid []bool
	Flags []uint64
	Stats Stats
}

// State deep-copies the cache contents and counters.
func (c *Cache) State() *State {
	st := &State{Stats: c.stats}
	for _, l := range c.lines {
		st.PCs = append(st.PCs, l.pc)
		st.Valid = append(st.Valid, l.valid)
		st.Flags = append(st.Flags, l.flags)
	}
	return st
}

// SetState restores a previously captured State into a cache with the
// same entry count.
func (c *Cache) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("flagcache: nil state")
	}
	n := len(c.lines)
	if len(st.PCs) != n || len(st.Valid) != n || len(st.Flags) != n {
		return fmt.Errorf("flagcache: state geometry mismatch (%d entries vs %d)", len(st.PCs), n)
	}
	for i := range c.lines {
		c.lines[i] = line{pc: st.PCs[i], valid: st.Valid[i], flags: st.Flags[i]}
	}
	c.stats = st.Stats
	return nil
}

// HitRate returns the fraction of probes that hit.
func (s Stats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}
