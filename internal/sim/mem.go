package sim

import (
	"math/bits"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
)

// memKey addresses the functional memory. Global space is flat and
// shared; shared space is per-CTA; spill space is per warp slot (each
// lane's slice is separated by the lane field).
type memKey struct {
	space isa.MemSpace
	scope uint32 // CTA id for shared, warp slot for spill, 0 for global
	lane  uint8  // spill space is per-lane private
	addr  uint32
}

// memInit is the deterministic synthetic content of global memory: any
// word never written reads as a hash of its address (the shared
// functional specification in arch.SyntheticWord).
func memInit(addr uint32) uint32 { return arch.SyntheticWord(addr) }

// memory is the functional content of the memory system. Global words
// are keyed by address alone, in a wordTable whose content a finished
// run hands out as its Stores, and the per-launch scratch spaces
// (shared and spill) by the full memKey, in a map made on first use.
type memory struct {
	global  wordTable
	scratch map[memKey]uint32
}

// load reads one lane's word: unwritten global words read as their
// synthetic content, unwritten scratch words as zero.
func (m *memory) load(k memKey) uint32 {
	if k.space == isa.SpaceGlobal {
		if v, ok := m.global.get(k.addr); ok {
			return v
		}
		return memInit(k.addr)
	}
	return m.scratch[k]
}

// store writes one lane's word.
func (m *memory) store(k memKey, v uint32) {
	if k.space == isa.SpaceGlobal {
		m.global.put(k.addr, v)
		return
	}
	if m.scratch == nil {
		m.scratch = make(map[memKey]uint32)
	}
	m.scratch[k] = v
}

// wordTable holds the written global words: open addressing with
// linear probing over a power-of-two slot array, indexed by a Fibonacci
// hash of the address (a multiply and a shift, where a Go map hashes
// every lane's access). It doubles when seven eighths full, so a run
// allocates it a logarithmic number of times, and its content becomes
// a map once, pre-sized, when the run ends (stores).
type wordTable struct {
	slots []wordSlot
	shift uint8 // 32 - log2(len(slots))
	n     int   // words in slots
	// The word at address emptyAddr marks free slots, so it is kept
	// beside them.
	top    uint32
	hasTop bool
}

type wordSlot struct{ addr, val uint32 }

const (
	// emptyAddr marks a free slot.
	emptyAddr = ^uint32(0)
	// wordTableSlots is a table's first size (16 KiB): the 688–1,792
	// words a generated kernel's job writes fit without doubling.
	wordTableSlots = 2048
)

// find returns the slot holding addr, or the free slot where it would
// go. The table must have slots.
func (t *wordTable) find(addr uint32) *wordSlot {
	mask := uint32(len(t.slots) - 1)
	for i := (addr * 0x9e3779b9) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.addr == addr || s.addr == emptyAddr {
			return s
		}
	}
}

func (t *wordTable) get(addr uint32) (uint32, bool) {
	if addr == emptyAddr {
		return t.top, t.hasTop
	}
	if t.n == 0 {
		return 0, false
	}
	s := t.find(addr)
	return s.val, s.addr == addr
}

func (t *wordTable) put(addr, val uint32) {
	if addr == emptyAddr {
		t.top, t.hasTop = val, true
		return
	}
	if 8*(t.n+1) > 7*len(t.slots) {
		// Full up to the load limit: an overwrite still fits.
		if t.n > 0 {
			if s := t.find(addr); s.addr == addr {
				s.val = val
				return
			}
		}
		t.grow()
	}
	s := t.find(addr)
	if s.addr == emptyAddr {
		s.addr = addr
		t.n++
	}
	s.val = val
}

// grow doubles the table (or makes its first slots) and re-inserts
// every word.
func (t *wordTable) grow() {
	old := t.slots
	size := max(2*len(old), wordTableSlots)
	t.slots = make([]wordSlot, size)
	for i := range t.slots {
		t.slots[i].addr = emptyAddr
	}
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.addr != emptyAddr {
			*t.find(s.addr) = s
		}
	}
}

// len is the number of written words.
func (t *wordTable) len() int {
	if t.hasTop {
		return t.n + 1
	}
	return t.n
}

// each calls f for every written word, in no particular order.
func (t *wordTable) each(f func(addr, val uint32)) {
	for _, s := range t.slots {
		if s.addr != emptyAddr {
			f(s.addr, s.val)
		}
	}
	if t.hasTop {
		f(emptyAddr, t.top)
	}
}

// stores returns the written words as the map a Result carries.
func (t *wordTable) stores() map[uint32]uint32 {
	m := make(map[uint32]uint32, t.len())
	t.each(func(addr, val uint32) { m[addr] = val })
	return m
}

// memSys combines functional storage with a latency/contention timing
// model: a bounded number of outstanding requests (MSHRs) and a
// congestion term that grows with occupancy. This coarse model is what
// lets CTA throttling *relieve* memory pressure (§9.2: MUM speeds up
// under GPU-shrink). memSys is the single-SM memPort implementation:
// every effect applies immediately. Whole-GPU runs use phasedPort
// instead, which adds the device-wide DRAM coupling.
type memSys struct {
	memory
	// outstanding tracks this SM's in-flight global/spill requests.
	outstanding int
	requests    uint64
	// issuedThisCycle enforces the SM's memory port width.
	issuedThisCycle int
	cycle           uint64
}

func newMemSys() *memSys { return &memSys{} }

// tick resets per-cycle port accounting.
func (m *memSys) tick(cycle uint64) {
	m.cycle = cycle
	m.issuedThisCycle = 0
}

// canAccept reports whether a new long-latency request fits this cycle.
func (m *memSys) canAccept() bool {
	return m.outstanding < arch.MaxOutstandingReqs && m.issuedThisCycle < arch.MemIssueWidth
}

// latency returns the completion delay for a new request under the
// current load: base latency plus an MSHR-occupancy congestion term.
func (m *memSys) latency() uint64 {
	return uint64(arch.GlobalMemLatency + 2*m.outstanding)
}

// accept registers a new long-latency request and returns its completion
// cycle. complete must be called at that cycle.
func (m *memSys) accept() uint64 {
	m.outstanding++
	m.requests++
	m.issuedThisCycle++
	return m.cycle + m.latency()
}

// complete retires one request.
func (m *memSys) complete() {
	m.outstanding--
}

func (m *memSys) noteRequests(n uint64) { m.requests += n }
func (m *memSys) requestCount() uint64  { return m.requests }

// resetScratch drops the per-launch address spaces (shared and spill)
// at a kernel boundary; global memory persists.
func (m *memSys) resetScratch() {
	m.scratch = nil
	m.outstanding = 0
	m.issuedThisCycle = 0
}
