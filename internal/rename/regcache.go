package rename

import (
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
)

// regCache is the compiler-assisted register-file cache backend (Abaie
// Shoushtary et al. 2023): the allocation discipline is the baseline's
// (every architected register pinned at warp launch, reclaimed at CTA
// completion), but a small fully-associative cache fronts the banked
// main RF. A hit serves the operand without occupying a bank port, so
// cached operands can never bank-conflict; the cache is write-allocate,
// FIFO-evicted, and under the default write-back policy dirty values
// reach the main RF only on eviction.
type regCache struct {
	Table // inner baseline table: mapping, launch/release, stats

	entries      int
	writeThrough bool
	// fifo holds the resident lines oldest-first; eviction pops the
	// head. The line count is small (tens), so linear probes are cheap
	// and — unlike a map — deterministic to iterate. Lines are keyed by
	// physical register, so it never holds more than min(entries, file
	// size) lines; it is allocated at that capacity and never grows.
	fifo []cacheLine

	hits, misses, fills, writebacks uint64
}

type cacheLine struct {
	phys  regfile.PhysReg
	val   [arch.WarpSize]uint32
	dirty bool
}

func newRegCache(cfg Config, file *regfile.File) (*regCache, error) {
	if cfg.CacheEntries <= 0 {
		return nil, fmt.Errorf("rename: regcache needs a positive CacheEntries, got %d", cfg.CacheEntries)
	}
	inner := cfg
	inner.Mode = ModeBaseline
	inner.Exempt = 0
	c := &regCache{
		entries:      cfg.CacheEntries,
		writeThrough: cfg.CacheWriteThrough,
		fifo:         make([]cacheLine, 0, min(cfg.CacheEntries, file.NumRegs())),
	}
	if err := c.Table.init(inner, file); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *regCache) Mode() Mode { return ModeRegCache }

// find returns the fifo index holding phys, or -1.
func (c *regCache) find(p regfile.PhysReg) int {
	for i := range c.fifo {
		if c.fifo[i].phys == p {
			return i
		}
	}
	return -1
}

// ReadOperand probes the cache after the baseline mapping resolves. A
// hit bypasses the banked RF (Bank -1: no operand-collector conflict);
// a miss reads the main RF normally. Read misses do not allocate — the
// cache is write-allocate, which is what makes it effective on the
// produce-then-consume register reuse pattern without thrashing on
// wide-fanout reads.
func (c *regCache) ReadOperand(w int, r isa.RegID) (OperandRead, bool) {
	p, ok := c.Lookup(w, r)
	if !ok {
		return OperandRead{Phys: p, Bank: -1}, false
	}
	if c.find(p) >= 0 {
		c.hits++
		return OperandRead{Phys: p, Bank: -1}, true
	}
	c.misses++
	return OperandRead{Phys: p, Bank: c.file.BankOf(p)}, true
}

func (c *regCache) ReadValue(p regfile.PhysReg) *[arch.WarpSize]uint32 {
	if i := c.find(p); i >= 0 {
		return &c.fifo[i].val
	}
	return c.file.Read(p)
}

// Write allocates (or updates) the line for p and merges the masked
// lanes. Write-through additionally forwards to the main RF; write-back
// marks the line dirty and defers the RF write to eviction.
func (c *regCache) Write(p regfile.PhysReg, val *[arch.WarpSize]uint32, mask uint32) {
	i := c.find(p)
	if i < 0 {
		if len(c.fifo) >= c.entries {
			c.evictOldest()
		}
		line := cacheLine{phys: p}
		if mask != ^uint32(0) {
			// Partial write into a fresh line: fill from the main RF so
			// unwritten lanes keep their current values.
			line.val = *c.file.Read(p)
			c.fills++
		}
		c.fifo = append(c.fifo, line)
		i = len(c.fifo) - 1
	}
	line := &c.fifo[i]
	for l := 0; l < arch.WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 {
			line.val[l] = val[l]
		}
	}
	if c.writeThrough {
		c.file.Write(p, val, mask)
	} else {
		line.dirty = true
	}
}

func (c *regCache) evictOldest() {
	victim := c.fifo[0]
	c.fifo = c.fifo[:copy(c.fifo, c.fifo[1:])]
	if victim.dirty {
		v := victim.val
		c.file.Write(victim.phys, &v, ^uint32(0))
		c.writebacks++
	}
}

// ReleaseWarp drops the warp's lines before the inner table frees its
// physical registers: the values are dead (a CTA's registers are never
// read after completion), so dirty lines are discarded without a
// writeback — exactly what a real cache does on a launch-scope flash
// invalidate.
func (c *regCache) ReleaseWarp(w int) [arch.NumBanks]int {
	for _, p := range c.mapping[w] {
		if p == regfile.Unmapped {
			continue
		}
		if i := c.find(p); i >= 0 {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
		}
	}
	return c.Table.ReleaseWarp(w)
}

func (c *regCache) Stats() Stats {
	s := c.Table.Stats()
	s.CacheHits, s.CacheMisses = c.hits, c.misses
	s.CacheFills, s.CacheWritebacks = c.fills, c.writebacks
	return s
}

// CacheState is the serialized register-cache content, lines in FIFO
// order (oldest first).
type CacheState struct {
	Lines                           []CacheLineState
	Hits, Misses, Fills, Writebacks uint64
}

// CacheLineState is one resident line.
type CacheLineState struct {
	Phys  regfile.PhysReg
	Val   [arch.WarpSize]uint32
	Dirty bool
}

func (c *regCache) State() *State {
	st := c.Table.State()
	cs := &CacheState{
		Hits: c.hits, Misses: c.misses, Fills: c.fills, Writebacks: c.writebacks,
		Lines: make([]CacheLineState, len(c.fifo)),
	}
	for i, l := range c.fifo {
		cs.Lines[i] = CacheLineState{Phys: l.phys, Val: l.val, Dirty: l.dirty}
	}
	st.Cache = cs
	return st
}

func (c *regCache) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("rename: nil state")
	}
	if st.Cache == nil {
		return fmt.Errorf("rename: state has no register-cache payload")
	}
	if len(st.Cache.Lines) > c.entries {
		return fmt.Errorf("rename: cache state holds %d lines, cache has %d entries",
			len(st.Cache.Lines), c.entries)
	}
	seen := map[regfile.PhysReg]bool{}
	for _, l := range st.Cache.Lines {
		if int(l.Phys) < 0 || int(l.Phys) >= c.file.NumRegs() {
			return fmt.Errorf("rename: cache state line for physical %d out of range", l.Phys)
		}
		if seen[l.Phys] {
			return fmt.Errorf("rename: cache state holds physical %d twice", l.Phys)
		}
		seen[l.Phys] = true
	}
	if err := c.Table.SetState(baseState(st)); err != nil {
		return err
	}
	c.fifo = c.fifo[:0]
	for _, l := range st.Cache.Lines {
		c.fifo = append(c.fifo, cacheLine{phys: l.Phys, val: l.Val, dirty: l.Dirty})
	}
	c.hits, c.misses = st.Cache.Hits, st.Cache.Misses
	c.fills, c.writebacks = st.Cache.Fills, st.Cache.Writebacks
	return nil
}

func (c *regCache) SelfCheck() error {
	if len(c.fifo) > c.entries {
		return fmt.Errorf("rename: cache holds %d lines, capacity %d", len(c.fifo), c.entries)
	}
	seen := map[regfile.PhysReg]bool{}
	for _, l := range c.fifo {
		if seen[l.phys] {
			return fmt.Errorf("rename: cache holds physical %d twice", l.phys)
		}
		seen[l.phys] = true
	}
	return c.Table.SelfCheck()
}
