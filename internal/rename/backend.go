package rename

import (
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
)

// Backend is the register-file architecture under test: every policy
// decision the SM pipeline consults — allocation, release, operand
// resolution, value storage — plus checkpointing. The classic renaming
// Table implements it directly for the baseline/hw-only/compiler modes;
// regCache and smemSpill wrap a baseline table to model alternative
// register-file organizations behind the very same seam.
//
// Contract notes the simulator relies on:
//
//   - ReadOperand/ReadValue and PhysForWrite/Write form resolve/access
//     pairs: the pipeline resolves at issue time and touches the value
//     at collector/writeback time using the returned Phys. A Phys is
//     only ever passed back to the backend that produced it (wrapper
//     backends hand out virtual ids above the file's range).
//   - Policy predicates (IssueAllocates, ReleasesAtWarpExit, Renames,
//     SpillFallback) are constant for a backend's lifetime; the issue,
//     dispatch and scheduler paths branch on them instead of on the
//     mode enum, which is what keeps those layers mode-agnostic.
//   - State/SetState must round-trip the backend's complete mutable
//     state through any encoder (gob in the durability layer): resuming
//     from a checkpoint must be byte-identical to never stopping.
type Backend interface {
	Mode() Mode
	File() *regfile.File

	// Policy predicates (constant per backend).
	IssueAllocates() bool
	ReleasesAtWarpExit() bool
	Renames() bool
	SpillFallback() bool

	// Warp lifecycle. ReleaseWarp frees every register warp slot w
	// holds and returns the count it freed per bank — by architected
	// register, arch.BankOf(r), the bank the throttle governor tracks —
	// without allocating.
	LaunchWarp(w int) bool
	ReleaseWarp(w int) [arch.NumBanks]int
	MappedCount(w int) int

	// Operand resolution and value access.
	Mapped(w int, r isa.RegID) bool
	ReadOperand(w int, r isa.RegID) (OperandRead, bool)
	ReadValue(p regfile.PhysReg) *[arch.WarpSize]uint32
	PhysForWrite(w int, r isa.RegID, fullWrite bool) (WriteResult, bool)
	Write(p regfile.PhysReg, val *[arch.WarpSize]uint32, mask uint32)
	Release(w int, r isa.RegID) bool

	// §8.1 whole-warp spill fallback (SpillFallback backends only).
	SpillWarp(w int) []SpilledReg
	RestoreWarp(w int, regs []SpilledReg) bool

	// Accounting and verification.
	Stats() Stats
	TableBytes() int
	SelfCheck() error

	// Checkpointing.
	State() *State
	SetState(*State) error
}

// NewBackend builds the backend for cfg.Mode over a physical register
// file.
func NewBackend(cfg Config, file *regfile.File) (Backend, error) {
	bs, err := newBackends(cfg, 1, func(int) *regfile.File { return file })
	if err != nil {
		return nil, err
	}
	return bs[0], nil
}

// NewBackends builds one backend for cfg.Mode over each of files — the
// single construction seam internal/sim uses. The backends, their
// mapping rows, their ownership histories and the wrapper backends'
// state each come from one slab, so a whole-device launch builds its
// SMs' backends at once.
func NewBackends(cfg Config, files []regfile.File) ([]Backend, error) {
	return newBackends(cfg, len(files), func(i int) *regfile.File { return &files[i] })
}

func newBackends(cfg Config, n int, file func(int) *regfile.File) ([]Backend, error) {
	// The wrapper backends keep the baseline discipline in an inner
	// table; smemspill's covers only the RF-resident registers.
	inner := cfg
	switch cfg.Mode {
	case ModeBaseline, ModeHWOnly, ModeCompiler:
	case ModeRegCache:
		if cfg.CacheEntries <= 0 {
			return nil, fmt.Errorf("rename: regcache needs a positive CacheEntries, got %d", cfg.CacheEntries)
		}
		inner.Mode, inner.Exempt = ModeBaseline, 0
	case ModeSMemSpill:
		if cfg.SpillRegs < 0 || cfg.SpillRegs >= cfg.RegCount {
			return nil, fmt.Errorf("rename: smemspill SpillRegs %d out of range [0, %d)",
				cfg.SpillRegs, cfg.RegCount)
		}
		inner.Mode, inner.Exempt = ModeBaseline, 0
		inner.RegCount = cfg.RegCount - cfg.SpillRegs
	default:
		return nil, fmt.Errorf("rename: unknown mode %v", cfg.Mode)
	}
	if err := inner.check(); err != nil {
		return nil, err
	}
	numRegs := file(0).NumRegs()
	sl := newTableSlabs(inner, n, numRegs)
	out := make([]Backend, n)
	switch cfg.Mode {
	case ModeRegCache:
		// Lines are keyed by physical register, so a cache never holds
		// more than min(entries, file size) of them; each gets exactly
		// that capacity and never grows.
		lines := min(cfg.CacheEntries, numRegs)
		cs := make([]regCache, n)
		fifo := make([]cacheLine, n*lines)
		for i := range cs {
			c := &cs[i]
			c.Table.init(inner, file(i), &sl, i)
			c.entries, c.writeThrough = cfg.CacheEntries, cfg.CacheWriteThrough
			c.fifo = fifo[i*lines : i*lines : (i+1)*lines]
			out[i] = c
		}
	case ModeSMemSpill:
		slots := inner.MaxWarps * cfg.SpillRegs
		bs := make([]smemSpill, n)
		vals := make([][arch.WarpSize]uint32, n*slots)
		for i := range bs {
			b := &bs[i]
			b.Table.init(inner, file(i), &sl, i)
			b.regCount, b.keep = cfg.RegCount, inner.RegCount
			b.latency = arch.SharedMemLatency
			b.base = regfile.PhysReg(numRegs)
			b.vals = vals[i*slots : (i+1)*slots : (i+1)*slots]
			out[i] = b
		}
	default:
		ts := make([]Table, n)
		for i := range ts {
			ts[i].init(cfg, file(i), &sl, i)
			out[i] = &ts[i]
		}
	}
	return out, nil
}

// baseState returns a shallow copy of st with the wrapper payloads
// stripped, suitable for restoring into the wrapped inner Table (whose
// SetState rejects states that still carry a wrapper payload).
func baseState(st *State) *State {
	base := *st
	base.Cache, base.SMem = nil, nil
	return &base
}
