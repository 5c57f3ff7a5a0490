package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"

	"regvirt/internal/compiler"
	"regvirt/internal/power"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
)

// Result is the machine-readable encoding of one simulation: the same
// JSON whether it came from cmd/regvsim -json, a POST to cmd/regvd, or
// the result cache — so CLI and daemon outputs are interchangeable.
// For whole-GPU jobs the scalar fields describe the busiest SM (what
// the human-readable regvsim output reports) and GPU carries the
// device-level aggregate.
type Result struct {
	// ID is the job's content address (Job.Key), when known.
	ID string `json:"id,omitempty"`
	// Tenant is the queue the submission was served under. It is never
	// set on cached or persisted results (identical jobs from different
	// tenants share one result, byte for byte); the HTTP layer stamps it
	// onto per-response copies so clients see which queue answered them.
	Tenant string `json:"tenant,omitempty"`

	Kernel     string       `json:"kernel"`
	ArchRegs   int          `json:"arch_regs"`
	ExemptRegs int          `json:"exempt_regs"`
	Config     ResultConfig `json:"config"`

	Cycles           uint64  `json:"cycles"`
	Instrs           uint64  `json:"instrs"`
	IPC              float64 `json:"ipc"`
	AvgResidentWarps float64 `json:"avg_resident_warps"`
	MemRequests      uint64  `json:"mem_requests"`
	Spills           uint64  `json:"spills"`

	PeakLiveRegs           int     `json:"peak_live_regs"`
	CompilerAllocatedRegs  int     `json:"compiler_allocated_regs"`
	AllocationReductionPct float64 `json:"allocation_reduction_pct"`

	DecodedPirs        uint64  `json:"decoded_pirs"`
	DecodedPbrs        uint64  `json:"decoded_pbrs"`
	DynamicIncreasePct float64 `json:"dynamic_increase_pct"`

	FlagProbes     uint64  `json:"flag_probes"`
	FlagHitRatePct float64 `json:"flag_hit_rate_pct"`

	Throttles         uint64  `json:"throttles"`
	WarpsBlocked      uint64  `json:"warps_blocked"`
	SubarraysAwakePct float64 `json:"subarrays_awake_pct"`

	Stalls ResultStalls `json:"stalls"`

	DivergentBranches uint64 `json:"divergent_branches"`
	UniformBranches   uint64 `json:"uniform_branches"`
	MaxStackDepth     int    `json:"max_stack_depth"`

	// StoresDigest is a SHA-256 over the sorted (address, value) pairs
	// of final global memory — the functional fingerprint two runs must
	// share to count as "the same result".
	StoresDigest string `json:"stores_digest"`

	Energy ResultEnergy `json:"energy"`

	// Backend carries the wrapper backends' extra counters ("regcache",
	// "smemspill"); omitted for the classic modes, whose result bytes
	// are unchanged by the backend refactor.
	Backend *ResultBackend `json:"backend,omitempty"`

	GPU *ResultGPU `json:"gpu,omitempty"`

	// Profile is the sim-phase profiling report ("profile": true jobs
	// only). For whole-GPU jobs the top-level attribution is the device
	// aggregate and PerSM breaks it down per SM; the timeline is the
	// busiest SM's (the one the scalar fields describe).
	Profile *ResultProfile `json:"profile,omitempty"`
}

// ResultConfig echoes the effective (normalized) configuration. The
// backend-specific knobs are omitted when zero, so classic-mode results
// keep their exact historical encoding.
type ResultConfig struct {
	Mode                string `json:"mode"`
	PhysRegs            int    `json:"physregs"`
	PowerGating         bool   `json:"gating"`
	WakeupLatency       int    `json:"wakeup"`
	FlagCacheEntries    int    `json:"flagcache"`
	TableBytes          int    `json:"table_bytes"`
	RFCacheEntries      int    `json:"rfcache,omitempty"`
	RFCacheWriteThrough bool   `json:"rfcache_wt,omitempty"`
	SpillRegs           int    `json:"spill_regs,omitempty"`
}

// ResultBackend is the per-backend accounting of the wrapper modes.
type ResultBackend struct {
	CacheHits       uint64  `json:"cache_hits,omitempty"`
	CacheMisses     uint64  `json:"cache_misses,omitempty"`
	CacheFills      uint64  `json:"cache_fills,omitempty"`
	CacheWritebacks uint64  `json:"cache_writebacks,omitempty"`
	CacheHitRatePct float64 `json:"cache_hit_rate_pct,omitempty"`
	SMemReads       uint64  `json:"smem_reads,omitempty"`
	SMemWrites      uint64  `json:"smem_writes,omitempty"`
}

// ResultStalls breaks down failed issue attempts by cause.
type ResultStalls struct {
	Hazard   uint64 `json:"hazard"`
	Throttle uint64 `json:"throttle"`
	Bank     uint64 `json:"bank"`
	MemPort  uint64 `json:"memport"`
}

// ResultEnergy is the Fig. 12 breakdown in picojoules.
type ResultEnergy struct {
	DynamicPJ     float64 `json:"dynamic_pj"`
	StaticPJ      float64 `json:"static_pj"`
	RenameTablePJ float64 `json:"rename_table_pj"`
	FlagInstrPJ   float64 `json:"flag_instr_pj"`
	TotalPJ       float64 `json:"total_pj"`
}

// ResultProfile is the job-level sim-phase profiling report: cycle
// attribution (the six classes partition the profiled cycles), the
// per-warp-slot issue distribution, a coarse warp-state timeline, and
// — per SM for whole-GPU jobs — the backend traffic counters that
// explain operand-side stalls (regcache hit/fill/writeback, smemspill
// shared-memory reads/writes).
type ResultProfile struct {
	IssueCycles        uint64 `json:"issue_cycles"`
	OperandStallCycles uint64 `json:"operand_stall_cycles"`
	MemStallCycles     uint64 `json:"mem_stall_cycles"`
	HazardStallCycles  uint64 `json:"hazard_stall_cycles"`
	CommitStallCycles  uint64 `json:"commit_stall_cycles"`
	IdleCycles         uint64 `json:"idle_cycles"`

	// WarpIssued is issued instructions per warp slot (trailing zero
	// slots trimmed).
	WarpIssued []uint64 `json:"warp_issued,omitempty"`

	// Timeline samples every warp slot's state at a fixed cycle cadence
	// (sim.ProfileAbsent = 255 marks an empty slot); SamplesDropped
	// counts samples lost to the in-sim cap.
	Timeline       []ResultWarpSample `json:"timeline,omitempty"`
	SamplesDropped uint64             `json:"samples_dropped,omitempty"`

	// PerSM is the per-SM breakdown of whole-GPU jobs.
	PerSM []ResultProfileSM `json:"per_sm,omitempty"`
}

// ResultWarpSample is one timeline sample.
type ResultWarpSample struct {
	Cycle  uint64  `json:"cycle"`
	States []uint8 `json:"states"`
}

// ResultProfileSM is one SM's share of a whole-GPU profile.
type ResultProfileSM struct {
	SM                 int    `json:"sm"`
	Cycles             uint64 `json:"cycles"`
	Instrs             uint64 `json:"instrs"`
	IssueCycles        uint64 `json:"issue_cycles"`
	OperandStallCycles uint64 `json:"operand_stall_cycles"`
	MemStallCycles     uint64 `json:"mem_stall_cycles"`
	HazardStallCycles  uint64 `json:"hazard_stall_cycles"`
	CommitStallCycles  uint64 `json:"commit_stall_cycles"`
	IdleCycles         uint64 `json:"idle_cycles"`

	// Backend traffic (mode-dependent; zero fields omitted).
	CacheHits       uint64 `json:"cache_hits,omitempty"`
	CacheFills      uint64 `json:"cache_fills,omitempty"`
	CacheWritebacks uint64 `json:"cache_writebacks,omitempty"`
	SMemReads       uint64 `json:"smem_reads,omitempty"`
	SMemWrites      uint64 `json:"smem_writes,omitempty"`
}

// profileFromSim maps one SM's sim profile into the report form.
func profileFromSim(p *sim.Profile) *ResultProfile {
	if p == nil {
		return nil
	}
	out := &ResultProfile{
		IssueCycles:        p.IssueCycles,
		OperandStallCycles: p.OperandStallCycles,
		MemStallCycles:     p.MemStallCycles,
		HazardStallCycles:  p.HazardStallCycles,
		CommitStallCycles:  p.CommitStallCycles,
		IdleCycles:         p.IdleCycles,
		SamplesDropped:     p.SamplesDropped,
	}
	last := -1
	for i, n := range p.WarpIssued {
		if n > 0 {
			last = i
		}
	}
	if last >= 0 {
		out.WarpIssued = append([]uint64(nil), p.WarpIssued[:last+1]...)
	}
	for _, smp := range p.Samples {
		out.Timeline = append(out.Timeline, ResultWarpSample{
			Cycle:  smp.Cycle,
			States: append([]uint8(nil), smp.States...),
		})
	}
	return out
}

// profileSMRow summarizes one SM for the per-SM table of a GPU profile.
func profileSMRow(sm int, res *sim.Result) ResultProfileSM {
	p := res.Profile
	return ResultProfileSM{
		SM: sm, Cycles: res.Cycles, Instrs: res.Instrs,
		IssueCycles:        p.IssueCycles,
		OperandStallCycles: p.OperandStallCycles,
		MemStallCycles:     p.MemStallCycles,
		HazardStallCycles:  p.HazardStallCycles,
		CommitStallCycles:  p.CommitStallCycles,
		IdleCycles:         p.IdleCycles,
		CacheHits:          res.Rename.CacheHits,
		CacheFills:         res.Rename.CacheFills,
		CacheWritebacks:    res.Rename.CacheWritebacks,
		SMemReads:          res.Rename.SMemReads,
		SMemWrites:         res.Rename.SMemWrites,
	}
}

// ResultGPU is the whole-device aggregate of a sim.RunGPU job.
type ResultGPU struct {
	SMs                    int     `json:"sms"`
	DeviceCycles           uint64  `json:"device_cycles"`
	TotalInstrs            uint64  `json:"total_instrs"`
	AllocationReductionPct float64 `json:"allocation_reduction_pct"`
}

// ResultFromSim encodes a single-SM run. cfg must be the configuration
// the run used (post sim defaulting is fine); tableBytes is the
// renaming-table budget the kernel was compiled under (0 for
// unconstrained), which prices the rename-table energy component.
func ResultFromSim(k *compiler.Kernel, cfg sim.Config, tableBytes int, res *sim.Result) *Result {
	return encodeResult(k, cfg, tableBytes, res, res.Stores)
}

// encodeResult encodes one SM's counters with the functional digest
// over stores (the SM's own for single-SM runs, the device's for
// whole-GPU runs, whose per-SM results carry none).
func encodeResult(k *compiler.Kernel, cfg sim.Config, tableBytes int, res *sim.Result, stores map[uint32]uint32) *Result {
	awake := 0.0
	if res.RF.TotalSubarrayCyc > 0 {
		awake = float64(res.RF.AwakeSubarrayCyc) / float64(res.RF.TotalSubarrayCyc) * 100
	}
	ipc := 0.0
	if res.Cycles > 0 {
		ipc = float64(res.Instrs) / float64(res.Cycles)
	}
	r := &Result{
		Kernel:     k.Prog.Name,
		ArchRegs:   k.Prog.RegCount,
		ExemptRegs: k.Exempt,
		Config: ResultConfig{
			Mode: cfg.Mode.String(), PhysRegs: res.PhysRegs,
			PowerGating: cfg.PowerGating, WakeupLatency: cfg.WakeupLatency,
			FlagCacheEntries: cfg.FlagCacheEntries, TableBytes: tableBytes,
			RFCacheEntries: cfg.RFCacheEntries, RFCacheWriteThrough: cfg.RFCacheWriteThrough,
			SpillRegs: cfg.SpillRegs,
		},
		Cycles: res.Cycles, Instrs: res.Instrs, IPC: ipc,
		AvgResidentWarps: res.AvgResidentWarps,
		MemRequests:      res.MemRequests, Spills: res.Spills,
		PeakLiveRegs:           res.PeakLiveRegs,
		CompilerAllocatedRegs:  res.CompilerAllocatedRegs,
		AllocationReductionPct: res.AllocationReduction() * 100,
		DecodedPirs:            res.DecodedPirs, DecodedPbrs: res.DecodedPbrs,
		DynamicIncreasePct: res.DynamicIncrease() * 100,
		FlagProbes:         res.Flag.Probes,
		FlagHitRatePct:     res.Flag.HitRate() * 100,
		Throttles:          res.Throttle.Throttles, WarpsBlocked: res.Throttle.Blocked,
		SubarraysAwakePct: awake,
		Stalls: ResultStalls{
			Hazard: res.Stalls.Hazard, Throttle: res.Stalls.Throttle,
			Bank: res.Stalls.Bank, MemPort: res.Stalls.MemPort,
		},
		DivergentBranches: res.DivergentBranches,
		UniformBranches:   res.UniformBranches,
		MaxStackDepth:     res.MaxStackDepth,
		StoresDigest:      DigestStores(stores),
	}
	switch cfg.Mode {
	case rename.ModeRegCache:
		probes := res.Rename.CacheHits + res.Rename.CacheMisses
		hitPct := 0.0
		if probes > 0 {
			hitPct = float64(res.Rename.CacheHits) / float64(probes) * 100
		}
		r.Backend = &ResultBackend{
			CacheHits: res.Rename.CacheHits, CacheMisses: res.Rename.CacheMisses,
			CacheFills: res.Rename.CacheFills, CacheWritebacks: res.Rename.CacheWritebacks,
			CacheHitRatePct: hitPct,
		}
	case rename.ModeSMemSpill:
		r.Backend = &ResultBackend{
			SMemReads: res.Rename.SMemReads, SMemWrites: res.Rename.SMemWrites,
		}
	}
	tb := 0
	if cfg.Mode.Renames() {
		// Only the renaming modes maintain a table; the baseline and the
		// wrapper backends pay no rename-table energy.
		tb = tableBytes
	}
	e := power.NewModel(power.DefaultParams()).Breakdown(power.CountersOf(res, tb))
	r.Energy = ResultEnergy{
		DynamicPJ: e.DynamicPJ, StaticPJ: e.StaticPJ,
		RenameTablePJ: e.RenameTablePJ, FlagInstrPJ: e.FlagInstrPJ,
		TotalPJ: e.TotalPJ(),
	}
	r.Profile = profileFromSim(res.Profile)
	return r
}

// ResultFromGPU encodes a whole-device run: per-SM detail from the
// busiest SM (most instructions, regvsim's convention) plus the device
// aggregate, with the functional digest over the shared global memory.
func ResultFromGPU(k *compiler.Kernel, cfg sim.Config, tableBytes int, g *sim.GPUResult) *Result {
	busiest := g.PerSM[0]
	for _, res := range g.PerSM {
		if res.Instrs > busiest.Instrs {
			busiest = res
		}
	}
	r := encodeResult(k, cfg, tableBytes, busiest, g.Stores)
	r.GPU = &ResultGPU{
		SMs:                    len(g.PerSM),
		DeviceCycles:           g.Cycles,
		TotalInstrs:            g.Instrs,
		AllocationReductionPct: g.AllocationReduction() * 100,
	}
	if g.Profile != nil {
		// Device aggregate at the top level, the busiest SM's timeline
		// (ResultFromSim already attached it), one row per SM below.
		timeline := r.Profile.Timeline
		r.Profile = profileFromSim(g.Profile)
		r.Profile.Timeline = timeline
		for i, res := range g.PerSM {
			r.Profile.PerSM = append(r.Profile.PerSM, profileSMRow(i, res))
		}
	}
	return r
}

// DigestStores hashes final global-memory content order-independently:
// SHA-256 over the (address, value) pairs in ascending address order,
// each pair as two little-endian uint32s. Each pair is packed into one
// uint64, address in the high half, the packed pairs are ordered by
// address with sortByAddress, and the sorted pairs are hashed as one
// buffer.
func DigestStores(stores map[uint32]uint32) string {
	slab := make([]uint64, 2*len(stores))
	pairs := slab[:0:len(stores)]
	for a, v := range stores {
		pairs = append(pairs, uint64(a)<<32|uint64(v))
	}
	pairs = sortByAddress(pairs, slab[len(stores):])
	buf := make([]byte, 8*len(pairs))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(buf[8*i:], uint32(p>>32))
		binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// sortByAddress orders packed pairs by address (their high half) with
// a least-significant-digit radix sort over the address bytes, tmp
// being a second buffer as long as pairs, and returns the buffer that
// holds the result. A map's addresses are distinct, so the order is
// total. A byte every address shares takes no pass: a kernel stores
// into one region, so its addresses' high bytes agree.
func sortByAddress(pairs, tmp []uint64) []uint64 {
	var counts [4][256]int
	for _, p := range pairs {
		a := uint32(p >> 32)
		counts[0][uint8(a)]++
		counts[1][uint8(a>>8)]++
		counts[2][uint8(a>>16)]++
		counts[3][uint8(a>>24)]++
	}
	for b := range counts {
		c, shift := &counts[b], 32+8*b
		if len(pairs) == 0 || c[uint8(pairs[0]>>shift)] == len(pairs) {
			continue
		}
		for d, at := 0, 0; d < len(c); d++ {
			c[d], at = at, at+c[d]
		}
		for _, p := range pairs {
			d := uint8(p >> shift)
			tmp[c[d]] = p
			c[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs
}

// ResultWithTenant returns the result encoding b (Result.JSON's bytes,
// or WriteJSON's of a *Result) with its tenant line set to tenant, or
// removed when tenant is empty: byte for byte the encoding of the same
// result with Tenant set so. The tenant line is the one MarshalIndent
// writes after the optional id line, and a "kernel" line always
// follows it. b itself is never modified; when nothing changes it is
// returned as is.
func ResultWithTenant(b []byte, tenant string) []byte {
	const idLine, tenantLine = "  \"id\": ", "  \"tenant\": "
	if !bytes.HasPrefix(b, []byte("{\n")) {
		return b
	}
	at := 2 // where a tenant line starts, if there is one
	if rest := b[at:]; bytes.HasPrefix(rest, []byte(idLine)) {
		at += bytes.IndexByte(rest, '\n') + 1
	}
	end := at
	if rest := b[at:]; bytes.HasPrefix(rest, []byte(tenantLine)) {
		end += bytes.IndexByte(rest, '\n') + 1
	}
	if tenant == "" {
		if end == at {
			return b
		}
		return append(b[:at:at], b[end:]...)
	}
	quoted, _ := json.Marshal(tenant) // a string always encodes
	out := make([]byte, 0, len(b)-(end-at)+len(tenantLine)+len(quoted)+2)
	out = append(append(append(out, b[:at]...), tenantLine...), quoted...)
	return append(append(out, ",\n"...), b[end:]...)
}

// JSON renders the result as indented, deterministic JSON (trailing
// newline included) — the exact bytes both regvsim -json and the
// daemon emit.
func (r *Result) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("jobs: marshal result: " + err.Error())
	}
	return append(b, '\n')
}
