package sim

import "regvirt/internal/arch"

// memPort is the only way an SM reaches the memory system. The
// single-SM engine (Run, RunSequence) plugs in *memSys, which applies
// every effect immediately. The whole-device engine (RunGPU) plugs in
// *phasedPort, which buffers all shared-state effects — global/shared/
// spill stores and DRAM token movement — as intents during the per-SM
// compute phase and applies them in fixed SM order during the commit
// phase. So no SM's cycle depends on where it falls in the stepping
// order, and shared state is quiescent at every commit boundary, where
// a device checkpoint is consistent.
type memPort interface {
	// tick opens a new cycle (resets per-cycle port accounting).
	tick(cycle uint64)
	// canAccept reports whether a new long-latency request fits this
	// cycle (MSHRs, SM port width, and — device mode — DRAM tokens).
	canAccept() bool
	// accept registers a new long-latency request and returns its
	// completion cycle; complete must be called at that cycle.
	accept() uint64
	// complete retires one long-latency request.
	complete()
	// load reads one lane's word; store writes one.
	load(k memKey) uint32
	store(k memKey, v uint32)
	// noteRequests accounts traffic issued outside the port's accept
	// path (the §8.1 spill/restore register copies).
	noteRequests(n uint64)
	// requestCount is the SM's cumulative global/spill transaction count.
	requestCount() uint64
}

// gpuShared is the state all 16 SMs of a whole-device simulation share:
// the functional memory content and the device-wide DRAM model. During
// a compute phase it is strictly read-only; only phasedPort.commit —
// called by the engine in SM index order — mutates it.
type gpuShared struct {
	memory
	// tokensPerCycle is the device-wide memory request acceptance rate.
	tokensPerCycle int
	// outstanding is the committed device-wide in-flight request count
	// (the congestion input to every SM's latency model next cycle).
	outstanding int
}

// storeIntent is one deferred lane store.
type storeIntent struct {
	k memKey
	v uint32
}

// phasedPort is one SM's two-phase view of gpuShared. All fields except
// shared are SM-private; reads of shared during compute see the state
// as of the previous commit, which is what makes the compute phases of
// different SMs order-independent.
type phasedPort struct {
	shared  *gpuShared
	smIndex int

	cycle           uint64
	outstanding     int // this SM's in-flight global/spill requests
	requests        uint64
	issuedThisCycle int

	// quota/used are this SM's share of the device DRAM tokens this
	// cycle. Tokens are assigned by rotation (see tick), not grabbed
	// from a shared bucket, so acceptance never depends on the order
	// the SMs compute in.
	quota, used int

	// Deferred shared-state effects, applied by commit.
	stores    []storeIntent
	dramDelta int // net change to shared.outstanding this cycle
}

// tick opens a new cycle and computes this SM's DRAM token quota: the
// tokensPerCycle device tokens rotate across the NumSMs SMs, starting
// at SM (cycle mod NumSMs). Every SM gets the same aggregate bandwidth
// as the sequential greedy bucket did, deterministically.
func (p *phasedPort) tick(cycle uint64) {
	p.cycle = cycle
	p.issuedThisCycle = 0
	p.used = 0
	off := (p.smIndex - int(cycle%uint64(arch.NumSMs)) + arch.NumSMs) % arch.NumSMs
	p.quota = p.shared.tokensPerCycle / arch.NumSMs
	if off < p.shared.tokensPerCycle%arch.NumSMs {
		p.quota++
	}
}

func (p *phasedPort) canAccept() bool {
	return p.outstanding < arch.MaxOutstandingReqs &&
		p.issuedThisCycle < arch.MemIssueWidth &&
		p.used < p.quota
}

func (p *phasedPort) accept() uint64 {
	p.outstanding++
	p.requests++
	p.issuedThisCycle++
	p.used++
	p.dramDelta++
	lat := uint64(arch.GlobalMemLatency + 2*p.outstanding)
	lat += uint64(p.shared.outstanding / 4) // committed device congestion
	return p.cycle + lat
}

func (p *phasedPort) complete() {
	p.outstanding--
	p.dramDelta--
}

// load reads committed memory. Stores of the current cycle — this SM's
// included — become visible at the commit boundary, one cycle later;
// proper kernels separate producer and consumer with a barrier (or a
// kernel boundary), which always spans a commit.
func (p *phasedPort) load(k memKey) uint32 { return p.shared.load(k) }

func (p *phasedPort) store(k memKey, v uint32) {
	p.stores = append(p.stores, storeIntent{k: k, v: v})
}

func (p *phasedPort) noteRequests(n uint64) { p.requests += n }
func (p *phasedPort) requestCount() uint64  { return p.requests }

// commit applies this SM's buffered effects to the shared state. The
// engine calls it for every SM in index order at the end of each cycle;
// that fixed order is the whole determinism argument.
func (p *phasedPort) commit() {
	for _, st := range p.stores {
		p.shared.store(st.k, st.v)
	}
	p.stores = p.stores[:0]
	p.shared.outstanding += p.dramDelta
	p.dramDelta = 0
}
