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
// file — the single construction seam internal/sim uses.
func NewBackend(cfg Config, file *regfile.File) (Backend, error) {
	switch cfg.Mode {
	case ModeBaseline, ModeHWOnly, ModeCompiler:
		return New(cfg, file)
	case ModeRegCache:
		return newRegCache(cfg, file)
	case ModeSMemSpill:
		return newSMemSpill(cfg, file)
	}
	return nil, fmt.Errorf("rename: unknown mode %v", cfg.Mode)
}

// baseState returns a shallow copy of st with the wrapper payloads
// stripped, suitable for restoring into the wrapped inner Table (whose
// SetState rejects states that still carry a wrapper payload).
func baseState(st *State) *State {
	base := *st
	base.Cache, base.SMem = nil, nil
	return &base
}
