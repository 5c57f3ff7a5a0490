// Package regfile models the physical register file of one SM: banked
// storage holding real 32-lane values, per-bank availability vectors
// (§7.1), subarray-granular power gating with wakeup latency (§8.2), and
// the access counters the power model consumes.
package regfile

import (
	"fmt"

	"regvirt/internal/arch"
)

// PhysReg is a physical warp-register index, or -1 when unmapped.
type PhysReg int16

// Unmapped marks an absent architected-to-physical mapping.
const Unmapped PhysReg = -1

// AllocPolicy selects how a free register is chosen within a bank.
type AllocPolicy int

const (
	// SubarrayFirst prefers registers in already-awake subarrays so that
	// live registers consolidate and idle subarrays can be gated (§8.2).
	SubarrayFirst AllocPolicy = iota
	// LowestIndex always picks the lowest free index (gating ablation).
	LowestIndex
	// Spread round-robins allocations across a bank's subarrays — the
	// adversarial policy for power gating: live registers scatter, so
	// subarrays rarely empty out. Quantifies what §8.2's consolidation
	// buys (BenchmarkAblationAllocPolicy).
	Spread
)

// Config sizes a register file.
type Config struct {
	// NumRegs is the physical warp-register count (1024 baseline, 512 for
	// GPU-shrink).
	NumRegs int
	// PowerGating enables subarray-level gating.
	PowerGating bool
	// WakeupLatency is the extra cycles charged when an allocation lands
	// in a sleeping subarray (Fig. 11b: 1, 3 or 10; CACTI-P estimates <1).
	WakeupLatency int
	// Policy is the in-bank allocation policy.
	Policy AllocPolicy
	// PoisonOnRelease overwrites every lane of a released register with a
	// sentinel. Purely a verification aid: any read of a released (but
	// not yet re-allocated) register then corrupts results and trips the
	// functional-equivalence oracle instead of silently reading stale
	// data.
	PoisonOnRelease bool
}

// PoisonValue is the sentinel written into released registers when
// Config.PoisonOnRelease is set.
const PoisonValue = 0xdeadbeef

// Stats are the raw event counters used for energy accounting.
type Stats struct {
	Reads, Writes    uint64 // operand-granular bank accesses
	Allocs, Releases uint64
	Wakeups          uint64
	AwakeSubarrayCyc uint64 // sum over cycles of awake subarrays
	TotalSubarrayCyc uint64 // sum over cycles of all subarrays
	PeakLive         int    // maximum concurrently allocated registers
	TouchedRegs      int    // distinct physical registers ever allocated
	FailedAllocs     uint64 // allocation attempts with no free register
}

// chunkRegs is how many registers' values one storage chunk holds.
// Chunks are allocated on first use, so a run pays for the part of the
// file its kernels touch, not for the whole file.
const chunkRegs = 32

// chunk is the value storage of chunkRegs consecutive registers.
type chunk = [chunkRegs][arch.WarpSize]uint32

// numSubarrays is the subarray count of every file: the geometry is
// fixed, only the subarray size scales with NumRegs.
const numSubarrays = arch.NumBanks * arch.SubarraysPerBank

// regState is one physical register's allocation state.
type regState struct {
	used    bool // allocated now
	touched bool // allocated at least once
}

// File is the physical register file.
type File struct {
	cfg         Config
	perBank     int
	perSubarray int
	chunks      []*chunk
	regs        []regState
	freeBank    [arch.NumBanks]int
	liveInSub   [numSubarrays]int // live count per (bank, subarray)
	spreadNext  [arch.NumBanks]int
	awake       [numSubarrays]bool
	live        int
	stats       Stats
}

// New builds a register file. NumRegs must be divisible by the bank and
// subarray geometry.
func New(cfg Config) (*File, error) {
	if cfg.NumRegs <= 0 || cfg.NumRegs%(arch.NumBanks*arch.SubarraysPerBank) != 0 {
		return nil, fmt.Errorf("regfile: NumRegs %d not divisible by %d banks x %d subarrays",
			cfg.NumRegs, arch.NumBanks, arch.SubarraysPerBank)
	}
	f := &File{
		cfg:         cfg,
		perBank:     cfg.NumRegs / arch.NumBanks,
		perSubarray: cfg.NumRegs / arch.NumBanks / arch.SubarraysPerBank,
		chunks:      make([]*chunk, (cfg.NumRegs+chunkRegs-1)/chunkRegs),
		regs:        make([]regState, cfg.NumRegs),
	}
	for b := range f.freeBank {
		f.freeBank[b] = f.perBank
	}
	if !cfg.PowerGating {
		for i := range f.awake {
			f.awake[i] = true
		}
	}
	return f, nil
}

// value returns register p's storage, allocating its chunk (zeroed, as
// the whole file starts) on first use.
func (f *File) value(p PhysReg) *[arch.WarpSize]uint32 {
	c := &f.chunks[int(p)/chunkRegs]
	if *c == nil {
		*c = new(chunk)
	}
	return &(*c)[int(p)%chunkRegs]
}

// NumRegs returns the physical register count.
func (f *File) NumRegs() int { return f.cfg.NumRegs }

// BankOf returns the bank of a physical register. Physical registers
// stripe across banks the same way architected ids do, so a baseline
// (unrenamed) register keeps its compiler-assigned bank.
func (f *File) BankOf(p PhysReg) int { return int(p) % arch.NumBanks }

// subarrayOf returns the global subarray index of a physical register.
func (f *File) subarrayOf(p PhysReg) int {
	bank := int(p) % arch.NumBanks
	within := int(p) / arch.NumBanks
	return bank*arch.SubarraysPerBank + within/f.perSubarray
}

// FreeInBank returns how many registers are free in a bank.
func (f *File) FreeInBank(bank int) int { return f.freeBank[bank] }

// FreeBanks returns the free count of every bank.
func (f *File) FreeBanks() [arch.NumBanks]int { return f.freeBank }

// FreeTotal returns the total free register count.
func (f *File) FreeTotal() int { return f.cfg.NumRegs - f.live }

// Live returns the number of currently allocated registers.
func (f *File) Live() int { return f.live }

// Alloc claims a free register in the given bank, honouring the
// allocation policy. It returns the register and the wakeup penalty in
// cycles (non-zero when gating had to wake a subarray). ok is false when
// the bank is exhausted.
func (f *File) Alloc(bank int) (p PhysReg, wake int, ok bool) {
	if bank < 0 || bank >= arch.NumBanks {
		return Unmapped, 0, false
	}
	chosen := -1
	switch {
	case f.cfg.Policy == SubarrayFirst && f.cfg.PowerGating:
		// First pass: free register in an awake subarray.
		for i := bank; i < f.cfg.NumRegs; i += arch.NumBanks {
			if !f.regs[i].used && f.awake[f.subarrayOf(PhysReg(i))] {
				chosen = i
				break
			}
		}
	case f.cfg.Policy == Spread:
		// Start each search at a rotating subarray offset.
		start := f.spreadNext[bank] % f.perBank
		f.spreadNext[bank] += f.perSubarray
		for k := 0; k < f.perBank; k++ {
			i := bank + ((start+k)%f.perBank)*arch.NumBanks
			if !f.regs[i].used {
				chosen = i
				break
			}
		}
	}
	if chosen == -1 {
		for i := bank; i < f.cfg.NumRegs; i += arch.NumBanks {
			if !f.regs[i].used {
				chosen = i
				break
			}
		}
	}
	if chosen == -1 {
		f.stats.FailedAllocs++
		return Unmapped, 0, false
	}
	p = PhysReg(chosen)
	r := &f.regs[chosen]
	r.used = true
	f.freeBank[bank]--
	f.live++
	if f.live > f.stats.PeakLive {
		f.stats.PeakLive = f.live
	}
	if !r.touched {
		r.touched = true
		f.stats.TouchedRegs++
	}
	f.stats.Allocs++
	sub := f.subarrayOf(p)
	f.liveInSub[sub]++
	if f.cfg.PowerGating && !f.awake[sub] {
		f.awake[sub] = true
		f.stats.Wakeups++
		wake = f.cfg.WakeupLatency
	}
	return p, wake, true
}

// Release frees a register. Releasing an already-free register panics:
// that is a hardware invariant violation, not an expected event.
func (f *File) Release(p PhysReg) {
	if p == Unmapped {
		return
	}
	if !f.regs[p].used {
		panic(fmt.Sprintf("regfile: double release of physical register %d", p))
	}
	if f.cfg.PoisonOnRelease {
		v := f.value(p)
		for l := range v {
			v[l] = PoisonValue
		}
	}
	f.regs[p].used = false
	f.freeBank[int(p)%arch.NumBanks]++
	f.live--
	f.stats.Releases++
	sub := f.subarrayOf(p)
	f.liveInSub[sub]--
	if f.cfg.PowerGating && f.liveInSub[sub] == 0 {
		f.awake[sub] = false
	}
}

// Read returns the 32-lane value of a register and counts the access.
func (f *File) Read(p PhysReg) *[arch.WarpSize]uint32 {
	f.stats.Reads++
	return f.value(p)
}

// Write stores lanes where mask is set and counts the access.
func (f *File) Write(p PhysReg, val *[arch.WarpSize]uint32, mask uint32) {
	f.stats.Writes++
	v := f.value(p)
	for l := 0; l < arch.WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 {
			v[l] = val[l]
		}
	}
}

// Peek reads without counting (for assertions and debugging).
func (f *File) Peek(p PhysReg) [arch.WarpSize]uint32 { return *f.value(p) }

// TickPower accrues one cycle of leakage accounting.
func (f *File) TickPower() {
	total := uint64(numSubarrays)
	f.stats.TotalSubarrayCyc += total
	if !f.cfg.PowerGating {
		f.stats.AwakeSubarrayCyc += total
		return
	}
	for _, a := range f.awake {
		if a {
			f.stats.AwakeSubarrayCyc++
		}
	}
}

// AwakeSubarrays returns the number of currently awake subarrays.
func (f *File) AwakeSubarrays() int {
	n := 0
	for _, a := range f.awake {
		if a {
			n++
		}
	}
	return n
}

// Stats returns a copy of the counters.
func (f *File) Stats() Stats { return f.stats }

// State is a deep, serializable copy of a register file's mutable
// state — everything Snapshot/Restore needs beyond the Config the
// file was built with. All fields are exported so any encoder
// (gob, JSON) round-trips it. Values holds every register, zero for
// those whose storage was never used.
type State struct {
	Values     [][arch.WarpSize]uint32
	Used       []bool
	Touched    []bool
	Awake      []bool
	LiveInSub  []int
	SpreadNext [arch.NumBanks]int
	FreeBank   [arch.NumBanks]int
	Live       int
	Stats      Stats
}

// State deep-copies the file's mutable state. The copy shares nothing
// with the live file, so it stays valid while simulation continues.
func (f *File) State() *State {
	st := &State{
		Values:     make([][arch.WarpSize]uint32, f.cfg.NumRegs),
		Used:       make([]bool, len(f.regs)),
		Touched:    make([]bool, len(f.regs)),
		Awake:      append([]bool(nil), f.awake[:]...),
		LiveInSub:  append([]int(nil), f.liveInSub[:]...),
		SpreadNext: f.spreadNext,
		FreeBank:   f.freeBank,
		Live:       f.live,
		Stats:      f.stats,
	}
	for i, c := range f.chunks {
		if c != nil {
			copy(st.Values[i*chunkRegs:], c[:])
		}
	}
	for i, r := range f.regs {
		st.Used[i], st.Touched[i] = r.used, r.touched
	}
	return st
}

// SetState restores a previously captured State into a file built with
// the same Config. It validates the geometry so a checkpoint from a
// differently sized file cannot be silently misapplied.
func (f *File) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("regfile: nil state")
	}
	if len(st.Values) != f.cfg.NumRegs || len(st.Used) != len(f.regs) ||
		len(st.Touched) != len(f.regs) || len(st.Awake) != len(f.awake) ||
		len(st.LiveInSub) != len(f.liveInSub) {
		return fmt.Errorf("regfile: state geometry mismatch (%d regs vs %d)",
			len(st.Values), f.cfg.NumRegs)
	}
	for p, v := range st.Values {
		*f.value(PhysReg(p)) = v
	}
	for i := range f.regs {
		f.regs[i] = regState{used: st.Used[i], touched: st.Touched[i]}
	}
	copy(f.awake[:], st.Awake)
	copy(f.liveInSub[:], st.LiveInSub)
	f.spreadNext = st.SpreadNext
	f.freeBank = st.FreeBank
	f.live = st.Live
	f.stats = st.Stats
	return f.SelfCheck()
}

// SelfCheck validates the allocator's internal invariants: the live
// count, per-bank free counts and per-subarray occupancy must all agree
// with the usage bitmap, and gating state must match occupancy. It
// returns a descriptive error on the first violation.
func (f *File) SelfCheck() error {
	live := 0
	var bankFree [arch.NumBanks]int
	var subLive [numSubarrays]int
	for i, r := range f.regs {
		if r.used {
			live++
			subLive[f.subarrayOf(PhysReg(i))]++
		} else {
			bankFree[i%arch.NumBanks]++
		}
	}
	if live != f.live {
		return fmt.Errorf("regfile: live count %d, bitmap says %d", f.live, live)
	}
	for b := 0; b < arch.NumBanks; b++ {
		if bankFree[b] != f.freeBank[b] {
			return fmt.Errorf("regfile: bank %d free %d, bitmap says %d", b, f.freeBank[b], bankFree[b])
		}
	}
	for s, n := range subLive {
		if n != f.liveInSub[s] {
			return fmt.Errorf("regfile: subarray %d live %d, bitmap says %d", s, f.liveInSub[s], n)
		}
		if f.cfg.PowerGating && f.awake[s] != (n > 0) {
			// An awake-but-empty subarray is only a transient before the
			// next release; empty-and-asleep with occupants is a bug.
			if !f.awake[s] && n > 0 {
				return fmt.Errorf("regfile: subarray %d asleep with %d live registers", s, n)
			}
		}
	}
	return nil
}
