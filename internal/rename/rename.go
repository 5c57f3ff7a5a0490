// Package rename implements the register-file management backends. The
// classic renaming table (§7.1) covers three modes: the conventional
// baseline (all registers allocated at launch, freed at CTA completion),
// the hardware-only scheme of the NVIDIA patent [46] (release on
// redefinition), and the paper's compiler-driven virtualization (release
// at pir/pbr points). Bank assignment is preserved: a renamed register is
// always found within the bank the compiler assigned (§7.1). Two further
// backends wrap the baseline table behind the same Backend interface: a
// compiler-assisted register-file cache (regcache.go) and RegDem-style
// spilling of high-numbered registers to shared memory (smemspill.go).
package rename

import (
	"fmt"
	"strings"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
)

// Mode selects the register management policy.
type Mode int

const (
	// ModeBaseline is the conventional GPU policy: every architected
	// register of a warp gets a physical register at launch; all are
	// reclaimed when the CTA completes. No renaming table exists.
	ModeBaseline Mode = iota
	// ModeHWOnly is the hardware-only dynamic allocation of [46]:
	// a physical register is mapped when the architected register is
	// first written and released only when the architected register is
	// fully redefined.
	ModeHWOnly
	// ModeCompiler is the paper's scheme: allocation on first write,
	// release at compiler-provided pir/pbr points.
	ModeCompiler
	// ModeRegCache keeps the baseline allocation discipline but fronts
	// the main register file with a small register cache (Abaie
	// Shoushtary et al. 2023): hits bypass the banked RF entirely, and
	// under the write-back policy dirty values reach the main RF only on
	// eviction.
	ModeRegCache
	// ModeSMemSpill is RegDem-style demotion (Sakdhnagool et al. 2019):
	// the highest-numbered architected registers live in shared memory
	// instead of the RF, shrinking per-warp RF demand at a fixed
	// per-access latency cost.
	ModeSMemSpill
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeHWOnly:
		return "hw-only"
	case ModeCompiler:
		return "compiler"
	case ModeRegCache:
		return "regcache"
	case ModeSMemSpill:
		return "smemspill"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Renames reports whether the mode maintains a renaming table (and so
// pays rename-table energy and lookup latency). The baseline and the
// wrapper backends map architected registers directly.
func (m Mode) Renames() bool { return m == ModeHWOnly || m == ModeCompiler }

// modeNames maps every accepted spelling to its mode. The canonical
// spellings (ModeNames) are the ones the jobs API uses; "hw-only" is
// accepted as an alias because Mode.String prints it.
var modeNames = []struct {
	name string
	mode Mode
}{
	{"baseline", ModeBaseline},
	{"hwonly", ModeHWOnly},
	{"hw-only", ModeHWOnly},
	{"compiler", ModeCompiler},
	{"regcache", ModeRegCache},
	{"smemspill", ModeSMemSpill},
}

// ModeNames lists the canonical mode spellings ParseMode accepts, in
// presentation order — the single source every CLI/API error quotes.
func ModeNames() []string {
	return []string{"baseline", "hwonly", "compiler", "regcache", "smemspill"}
}

// CanonicalName is the jobs-API spelling of the mode — the first entry
// for it in modeNames ("hwonly", where String prints the historical
// "hw-only"). Job normalization maps aliases through it so spelling
// variants of one configuration share a cache key.
func (m Mode) CanonicalName() string {
	for _, e := range modeNames {
		if e.mode == m {
			return e.name
		}
	}
	return m.String()
}

// ParseMode resolves a mode name. The error lists the valid modes, so
// callers (regvsim, regvd, the jobs API) surface a self-describing
// grammar failure.
func ParseMode(s string) (Mode, error) {
	for _, m := range modeNames {
		if m.name == s {
			return m.mode, nil
		}
	}
	return 0, fmt.Errorf("rename: unknown mode %q (valid modes: %s)",
		s, strings.Join(ModeNames(), ", "))
}

// Config sizes a register-management backend.
type Config struct {
	Mode Mode
	// RegCount is the architected register count per warp for the kernel.
	RegCount int
	// Exempt is N: ids < N are pinned at warp launch and never released
	// before CTA completion (ModeCompiler only).
	Exempt int
	// MaxWarps is the number of warp slots.
	MaxWarps int
	// CacheEntries sizes the register cache (ModeRegCache only; must be
	// positive for that mode).
	CacheEntries int
	// CacheWriteThrough selects write-through for ModeRegCache; the
	// default is write-back (dirty lines reach the main RF on eviction).
	CacheWriteThrough bool
	// SpillRegs is how many of the highest-numbered architected
	// registers ModeSMemSpill keeps in shared memory instead of the RF
	// (bounded to RegCount-1; at least r0 stays RF-resident).
	SpillRegs int
}

// Stats counts renaming events for the power model and the sharing
// analysis.
type Stats struct {
	// Lookups counts renaming-table reads (operand lookups and write
	// lookups for non-exempt registers).
	Lookups uint64
	// Allocs and Releases count mapping creations and removals.
	Allocs, Releases uint64
	// FailedAllocs counts writes that found no free physical register in
	// their bank (the warp must stall).
	FailedAllocs uint64
	// CrossWarpReuse counts allocations that received a physical register
	// previously owned by a *different* warp — the paper's §5 inter-warp
	// sharing, enabled by warp scheduling time offsets. SameWarpReuse
	// counts re-acquisition by the same warp (Fig. 2(a)'s r0 pattern).
	CrossWarpReuse, SameWarpReuse uint64
	// CacheHits/CacheMisses count register-cache probes (ModeRegCache;
	// zero elsewhere). CacheFills counts partial-write line fills from
	// the main RF, CacheWritebacks dirty-line evictions written back.
	CacheHits, CacheMisses, CacheFills, CacheWritebacks uint64
	// SMemReads/SMemWrites count accesses to shared-memory-resident
	// registers (ModeSMemSpill; zero elsewhere).
	SMemReads, SMemWrites uint64
}

// Table maintains per-warp architected-to-physical mappings.
type Table struct {
	cfg  Config
	file *regfile.File
	// mapping holds warp slot w's row at index w < cfg.MaxWarps; the rows
	// share one slab.
	mapping [arch.MaxWarpsPerSM][]regfile.PhysReg
	// lastOwner tracks the previous warp slot of each physical register
	// (-1 = never owned) for the sharing statistics.
	lastOwner []int16
	stats     Stats
}

// New builds a renaming table over a physical register file. It serves
// the three classic modes; the wrapper modes are built by NewBackend.
func New(cfg Config, file *regfile.File) (*Table, error) {
	if cfg.Mode == ModeRegCache || cfg.Mode == ModeSMemSpill {
		return nil, fmt.Errorf("rename: mode %v is a wrapper backend; use NewBackend", cfg.Mode)
	}
	t := &Table{}
	if err := t.init(cfg, file); err != nil {
		return nil, err
	}
	return t, nil
}

// init builds the table in place (the wrapper backends embed theirs).
func (t *Table) init(cfg Config, file *regfile.File) error {
	if cfg.RegCount <= 0 || cfg.RegCount > isa.MaxRegsPerThread {
		return fmt.Errorf("rename: RegCount %d out of range", cfg.RegCount)
	}
	if cfg.Exempt < 0 || cfg.Exempt > cfg.RegCount {
		return fmt.Errorf("rename: Exempt %d out of range", cfg.Exempt)
	}
	if cfg.MaxWarps <= 0 || cfg.MaxWarps > arch.MaxWarpsPerSM {
		return fmt.Errorf("rename: MaxWarps %d out of range", cfg.MaxWarps)
	}
	t.cfg, t.file = cfg, file
	t.lastOwner = make([]int16, file.NumRegs())
	for i := range t.lastOwner {
		t.lastOwner[i] = -1
	}
	slab := make([]regfile.PhysReg, cfg.MaxWarps*cfg.RegCount)
	for i := range slab {
		slab[i] = regfile.Unmapped
	}
	for w := range t.rows() {
		t.mapping[w] = slab[w*cfg.RegCount : (w+1)*cfg.RegCount : (w+1)*cfg.RegCount]
	}
	return nil
}

// rows returns the mapping rows of the configured warp slots.
func (t *Table) rows() [][]regfile.PhysReg { return t.mapping[:t.cfg.MaxWarps] }

// Mode returns the configured management mode.
func (t *Table) Mode() Mode { return t.cfg.Mode }

// File returns the underlying physical register file.
func (t *Table) File() *regfile.File { return t.file }

// IssueAllocates reports that issuing a write may need a fresh physical
// register, so the issue stage must run the bank-capacity and throttle
// gates. Backends that pin every register at launch never allocate at
// issue.
func (t *Table) IssueAllocates() bool { return t.cfg.Mode != ModeBaseline }

// ReleasesAtWarpExit reports that a warp's mappings are reclaimed the
// moment it exits (virtualized modes); the launch-pinned backends hold
// everything until the CTA completes (§1).
func (t *Table) ReleasesAtWarpExit() bool { return t.cfg.Mode != ModeBaseline }

// Renames reports that operand accesses traverse a renaming structure
// and therefore pay the configured rename latency.
func (t *Table) Renames() bool { return t.cfg.Mode != ModeBaseline }

// SpillFallback reports that the §8.1 whole-warp spill fallback is
// armed (the compiler scheme only: it is the pressure valve for
// under-provisioned virtualized register files).
func (t *Table) SpillFallback() bool { return t.cfg.Mode == ModeCompiler }

// tableManaged reports whether register r goes through the renaming
// table (as opposed to being direct-mapped).
func (t *Table) tableManaged(r isa.RegID) bool {
	switch t.cfg.Mode {
	case ModeBaseline:
		return false
	case ModeCompiler:
		return int(r) >= t.cfg.Exempt
	default:
		return true
	}
}

// LaunchWarp pins the registers a warp needs up front: every register in
// ModeBaseline, the exempt ones in ModeCompiler, none in ModeHWOnly.
// It returns false when physical registers ran out (callers must only
// launch within the throttle governor's budget).
func (t *Table) LaunchWarp(w int) bool {
	var pin int
	switch t.cfg.Mode {
	case ModeBaseline:
		pin = t.cfg.RegCount
	case ModeCompiler:
		pin = t.cfg.Exempt
	case ModeHWOnly:
		pin = 0
	}
	for r := 0; r < pin; r++ {
		p, _, ok := t.file.Alloc(arch.BankOf(r))
		if !ok {
			// Roll back partial pinning.
			for q := 0; q < r; q++ {
				t.file.Release(t.mapping[w][q])
				t.mapping[w][q] = regfile.Unmapped
			}
			t.stats.FailedAllocs++
			return false
		}
		t.mapping[w][r] = p
		t.stats.Allocs++
		t.noteOwner(w, p)
	}
	return true
}

// ReleaseWarp drops every mapping of a warp slot (CTA completion, §1:
// "once a register is allocated it is not released until the CTA
// completes"; under virtualization the same hook reclaims leftovers).
// It returns how many registers it freed in each bank, by the
// architected register's bank (arch.BankOf), which renaming preserves.
func (t *Table) ReleaseWarp(w int) (freed [arch.NumBanks]int) {
	for r, p := range t.mapping[w] {
		if p != regfile.Unmapped {
			t.file.Release(p)
			t.mapping[w][r] = regfile.Unmapped
			t.stats.Releases++
			freed[arch.BankOf(r)]++
		}
	}
	return freed
}

// Mapped reports whether warp w currently has a mapping for r without
// counting a table access (scheduler pre-checks).
func (t *Table) Mapped(w int, r isa.RegID) bool {
	return r != isa.RZ && t.mapping[w][r] != regfile.Unmapped
}

// Lookup resolves a source operand. ok is false when the register was
// never written (reads return an unmapped register only in programs that
// read uninitialized registers; the simulator treats those as zero).
func (t *Table) Lookup(w int, r isa.RegID) (regfile.PhysReg, bool) {
	if r == isa.RZ {
		return regfile.Unmapped, false
	}
	if t.tableManaged(r) {
		t.stats.Lookups++
	}
	p := t.mapping[w][r]
	return p, p != regfile.Unmapped
}

// OperandRead describes one resolved source-operand access: where the
// value lives and what the access costs.
type OperandRead struct {
	Phys regfile.PhysReg
	// Bank is the RF bank the read occupies in the operand collector,
	// or -1 when the access bypassed the banked RF (cache hit,
	// shared-memory-resident register) and cannot conflict.
	Bank int
	// Penalty is extra dependent-use latency charged for this operand
	// (shared-memory register accesses; zero for RF-resident values).
	Penalty int
}

// ReadOperand resolves a source operand for issue. ok follows Lookup's
// contract: false when the register was never written (the simulator
// treats such reads as zero).
func (t *Table) ReadOperand(w int, r isa.RegID) (OperandRead, bool) {
	p, ok := t.Lookup(w, r)
	if !ok {
		return OperandRead{Phys: p, Bank: -1}, false
	}
	return OperandRead{Phys: p, Bank: t.file.BankOf(p)}, true
}

// ReadValue returns the value behind a physical register resolved by
// ReadOperand (counted as a register-file read).
func (t *Table) ReadValue(p regfile.PhysReg) *[arch.WarpSize]uint32 {
	return t.file.Read(p)
}

// Write delivers a writeback to a physical register resolved by
// PhysForWrite.
func (t *Table) Write(p regfile.PhysReg, val *[arch.WarpSize]uint32, mask uint32) {
	t.file.Write(p, val, mask)
}

// WriteResult describes what a write-port mapping did.
type WriteResult struct {
	Phys regfile.PhysReg
	// Allocated is true when a new mapping was created.
	Allocated bool
	// Freed is true when ModeHWOnly released the previous mapping.
	Freed bool
	// WakeCycles is the subarray wakeup penalty of the allocation.
	WakeCycles int
}

// PhysForWrite resolves (allocating if needed) the physical register for
// a write to r by warp w. fullWrite reports that every lane writes
// (unguarded instruction with a full active mask): only then may
// ModeHWOnly recycle the previous mapping — a partial write must merge
// into the existing register. ok is false when allocation failed (no free
// register in the bank); the caller must stall and retry.
func (t *Table) PhysForWrite(w int, r isa.RegID, fullWrite bool) (WriteResult, bool) {
	if r == isa.RZ {
		return WriteResult{Phys: regfile.Unmapped}, true
	}
	if t.tableManaged(r) {
		t.stats.Lookups++
	}
	cur := t.mapping[w][r]
	switch t.cfg.Mode {
	case ModeBaseline:
		return WriteResult{Phys: cur}, true
	case ModeCompiler:
		if cur != regfile.Unmapped {
			return WriteResult{Phys: cur}, true
		}
	case ModeHWOnly:
		if cur != regfile.Unmapped {
			if !fullWrite {
				return WriteResult{Phys: cur}, true
			}
			// Full redefinition: the old value dies here; recycle.
			t.file.Release(cur)
			t.mapping[w][r] = regfile.Unmapped
			t.stats.Releases++
			p, wake, ok := t.file.Alloc(arch.BankOf(int(r)))
			if !ok {
				t.stats.FailedAllocs++
				return WriteResult{Freed: true}, false
			}
			t.mapping[w][r] = p
			t.stats.Allocs++
			t.noteOwner(w, p)
			return WriteResult{Phys: p, Allocated: true, Freed: true, WakeCycles: wake}, true
		}
	}
	p, wake, ok := t.file.Alloc(arch.BankOf(int(r)))
	if !ok {
		t.stats.FailedAllocs++
		return WriteResult{}, false
	}
	t.mapping[w][r] = p
	t.stats.Allocs++
	t.noteOwner(w, p)
	return WriteResult{Phys: p, Allocated: true, WakeCycles: wake}, true
}

// noteOwner records reuse statistics for a fresh allocation.
func (t *Table) noteOwner(w int, p regfile.PhysReg) {
	switch prev := t.lastOwner[p]; {
	case prev == int16(w):
		t.stats.SameWarpReuse++
	case prev >= 0:
		t.stats.CrossWarpReuse++
	}
	t.lastOwner[p] = int16(w)
}

// Release drops the mapping of r for warp w at a pir/pbr point. It is
// idempotent: releasing an unmapped register is a no-op (a backup pbr may
// follow an in-arm pir, §6.1). Exempt registers are never released.
// It returns true when a physical register was actually freed.
func (t *Table) Release(w int, r isa.RegID) bool {
	if t.cfg.Mode != ModeCompiler || r == isa.RZ || int(r) < t.cfg.Exempt {
		return false
	}
	p := t.mapping[w][r]
	if p == regfile.Unmapped {
		return false
	}
	t.file.Release(p)
	t.mapping[w][r] = regfile.Unmapped
	t.stats.Releases++
	return true
}

// MappedCount returns how many architected registers of warp w are
// currently mapped.
func (t *Table) MappedCount(w int) int {
	n := 0
	for _, p := range t.mapping[w] {
		if p != regfile.Unmapped {
			n++
		}
	}
	return n
}

// SpilledReg is one architected register evacuated by SpillWarp.
type SpilledReg struct {
	Reg isa.RegID
	Val [arch.WarpSize]uint32
}

// SpillWarp evacuates every non-exempt mapping of warp w, returning the
// values so the caller can write them to spill memory (§8.1 fallback:
// one coalesced memory operation per architected register).
func (t *Table) SpillWarp(w int) []SpilledReg {
	var out []SpilledReg
	for r := range t.mapping[w] {
		if t.cfg.Mode == ModeCompiler && r < t.cfg.Exempt {
			continue
		}
		p := t.mapping[w][r]
		if p == regfile.Unmapped {
			continue
		}
		out = append(out, SpilledReg{Reg: isa.RegID(r), Val: t.file.Peek(p)})
		t.file.Release(p)
		t.mapping[w][r] = regfile.Unmapped
		t.stats.Releases++
	}
	return out
}

// RestoreWarp re-allocates and refills previously spilled registers.
// ok is false (with no side effects) when the file lacks space.
func (t *Table) RestoreWarp(w int, regs []SpilledReg) bool {
	// Check capacity per bank first so restoration is all-or-nothing.
	var need [arch.NumBanks]int
	for _, sr := range regs {
		need[arch.BankOf(int(sr.Reg))]++
	}
	for bank, n := range need {
		if t.file.FreeInBank(bank) < n {
			return false
		}
	}
	full := ^uint32(0)
	for _, sr := range regs {
		p, _, ok := t.file.Alloc(arch.BankOf(int(sr.Reg)))
		if !ok {
			panic("rename: RestoreWarp allocation failed after capacity check")
		}
		v := sr.Val
		t.file.Write(p, &v, full)
		t.mapping[w][sr.Reg] = p
		t.stats.Allocs++
		t.noteOwner(w, p)
	}
	return true
}

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// State is a deep, serializable copy of a backend's mutable state (the
// mapping, ownership history and counters — the underlying register
// file snapshots separately). The wrapper backends attach their extra
// state through the optional pointer fields; the classic table modes
// leave them nil, so existing checkpoints keep decoding unchanged.
type State struct {
	Mapping   [][]regfile.PhysReg
	LastOwner []int16
	Stats     Stats
	// Cache is the register-cache content (ModeRegCache only).
	Cache *CacheState
	// SMem is the shared-memory register store (ModeSMemSpill only).
	SMem *SMemState
}

// State deep-copies the table's mutable state.
func (t *Table) State() *State {
	st := &State{
		Mapping:   make([][]regfile.PhysReg, t.cfg.MaxWarps),
		LastOwner: make([]int16, len(t.lastOwner)),
		Stats:     t.stats,
	}
	for w, row := range t.rows() {
		st.Mapping[w] = append([]regfile.PhysReg(nil), row...)
	}
	copy(st.LastOwner, t.lastOwner)
	return st
}

// SetState restores a previously captured State into a table built with
// the same Config over a file of the same geometry.
func (t *Table) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("rename: nil state")
	}
	if st.Cache != nil || st.SMem != nil {
		return fmt.Errorf("rename: state carries wrapper-backend payload, table is mode %v", t.cfg.Mode)
	}
	if len(st.Mapping) != t.cfg.MaxWarps || len(st.LastOwner) != len(t.lastOwner) {
		return fmt.Errorf("rename: state geometry mismatch (%d warps vs %d)",
			len(st.Mapping), t.cfg.MaxWarps)
	}
	for w := range st.Mapping {
		if len(st.Mapping[w]) != len(t.mapping[w]) {
			return fmt.Errorf("rename: warp %d has %d registers, table expects %d",
				w, len(st.Mapping[w]), len(t.mapping[w]))
		}
	}
	for w := range st.Mapping {
		copy(t.mapping[w], st.Mapping[w])
	}
	copy(t.lastOwner, st.LastOwner)
	t.stats = st.Stats
	return nil
}

// SelfCheck validates the mapping invariants: no two (warp, register)
// pairs may share a physical register, and every mapping must point at
// an allocated register (verified transitively by the file's own
// accounting: mapped count equals live count when the table owns every
// allocation).
func (t *Table) SelfCheck() error {
	owner := map[regfile.PhysReg][2]int{}
	mapped := 0
	for w, row := range t.rows() {
		for r, p := range row {
			if p == regfile.Unmapped {
				continue
			}
			mapped++
			if prev, dup := owner[p]; dup {
				return fmt.Errorf("rename: physical %d owned by both w%d:r%d and w%d:r%d",
					p, prev[0], prev[1], w, r)
			}
			owner[p] = [2]int{w, r}
		}
	}
	if live := t.file.Live(); mapped != live {
		return fmt.Errorf("rename: %d mappings but %d live physical registers", mapped, live)
	}
	return t.file.SelfCheck()
}

// TableBytes returns the SRAM footprint of the mapping structure for the
// configured geometry (10-bit entries, §7.1).
func (t *Table) TableBytes() int {
	if t.cfg.Mode == ModeBaseline {
		return 0
	}
	regs := t.cfg.RegCount
	if t.cfg.Mode == ModeCompiler {
		regs -= t.cfg.Exempt
	}
	return (arch.RenameEntryBits*t.cfg.MaxWarps*regs + 7) / 8
}
