package sim

import (
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
// are keyed by address alone — the map a finished run hands out as its
// Stores — and the per-launch scratch spaces (shared and spill) by the
// full memKey.
type memory struct {
	global  map[uint32]uint32
	scratch map[memKey]uint32
}

func newMemory() memory {
	return memory{global: make(map[uint32]uint32), scratch: make(map[memKey]uint32)}
}

// load reads one lane's word: unwritten global words read as their
// synthetic content, unwritten scratch words as zero.
func (m *memory) load(k memKey) uint32 {
	if k.space == isa.SpaceGlobal {
		if v, ok := m.global[k.addr]; ok {
			return v
		}
		return memInit(k.addr)
	}
	return m.scratch[k]
}

// store writes one lane's word.
func (m *memory) store(k memKey, v uint32) {
	if k.space == isa.SpaceGlobal {
		m.global[k.addr] = v
		return
	}
	m.scratch[k] = v
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

func newMemSys() *memSys {
	return &memSys{memory: newMemory()}
}

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
	m.scratch = make(map[memKey]uint32)
	m.outstanding = 0
	m.issuedThisCycle = 0
}
