package rename

import (
	"fmt"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
)

// smemSpill is the RegDem-style backend (Sakdhnagool et al. 2019): the
// compiler demotes the highest-numbered architected registers to shared
// memory, so each warp pins only the low `keep` registers in the RF —
// trading per-access latency on the demoted registers for occupancy
// that a small register file could not otherwise sustain. Demoted
// registers are addressed through virtual physical ids above the file's
// range; their values live in a backend-owned per-warp store standing
// in for the shared-memory scratch region.
type smemSpill struct {
	Table // inner baseline table over the keep registers

	regCount int // full architected register count
	keep     int // registers 0..keep-1 stay RF-resident
	latency  int // per-access penalty of a demoted register
	base     regfile.PhysReg

	// vals[w*spillCount + (r-keep)] is warp slot w's value of demoted
	// register r. Flat and index-addressed, so serialization and access
	// are deterministic.
	vals [][arch.WarpSize]uint32

	reads, writes uint64
}

func (b *smemSpill) Mode() Mode { return ModeSMemSpill }

func (b *smemSpill) demoted(r isa.RegID) bool {
	return r != isa.RZ && int(r) >= b.keep && int(r) < b.regCount
}

func (b *smemSpill) vphys(w int, r isa.RegID) regfile.PhysReg {
	return b.base + regfile.PhysReg(w*(b.regCount-b.keep)+int(r)-b.keep)
}

// Mapped treats demoted registers as always mapped: like the baseline's
// launch-pinned registers, their storage exists for the warp's whole
// lifetime (zero-initialized, as shared-memory scratch is).
func (b *smemSpill) Mapped(w int, r isa.RegID) bool {
	if b.demoted(r) {
		return true
	}
	return b.Table.Mapped(w, r)
}

// ReadOperand serves demoted registers from shared memory: no RF bank
// is occupied (Bank -1) but the access costs the shared-memory latency
// on the dependent-use path.
func (b *smemSpill) ReadOperand(w int, r isa.RegID) (OperandRead, bool) {
	if b.demoted(r) {
		b.reads++
		return OperandRead{Phys: b.vphys(w, r), Bank: -1, Penalty: b.latency}, true
	}
	return b.Table.ReadOperand(w, r)
}

func (b *smemSpill) ReadValue(p regfile.PhysReg) *[arch.WarpSize]uint32 {
	if p >= b.base {
		return &b.vals[p-b.base]
	}
	return b.file.Read(p)
}

// PhysForWrite maps demoted destinations to their virtual slot; the
// shared-memory store latency rides on WakeCycles, delaying the
// writeback exactly like a subarray wakeup would.
func (b *smemSpill) PhysForWrite(w int, r isa.RegID, fullWrite bool) (WriteResult, bool) {
	if b.demoted(r) {
		return WriteResult{Phys: b.vphys(w, r), WakeCycles: b.latency}, true
	}
	return b.Table.PhysForWrite(w, r, fullWrite)
}

func (b *smemSpill) Write(p regfile.PhysReg, val *[arch.WarpSize]uint32, mask uint32) {
	if p >= b.base {
		b.writes++
		slot := &b.vals[p-b.base]
		for l := 0; l < arch.WarpSize; l++ {
			if mask&(1<<uint(l)) != 0 {
				slot[l] = val[l]
			}
		}
		return
	}
	b.file.Write(p, val, mask)
}

// ReleaseWarp frees the warp's RF-resident registers and zeroes its
// shared-memory slots (scratch resets between CTAs, so a relaunched
// warp slot starts from zeroed registers either way).
func (b *smemSpill) ReleaseWarp(w int) [arch.NumBanks]int {
	spill := b.regCount - b.keep
	for i := w * spill; i < (w+1)*spill; i++ {
		b.vals[i] = [arch.WarpSize]uint32{}
	}
	return b.Table.ReleaseWarp(w)
}

func (b *smemSpill) Stats() Stats {
	s := b.Table.Stats()
	s.SMemReads, s.SMemWrites = b.reads, b.writes
	return s
}

// SMemState is the serialized shared-memory register store.
type SMemState struct {
	// Vals is the flat per-warp value array; its length pins the
	// (MaxWarps x SpillRegs) geometry the snapshot was taken under.
	Vals          [][arch.WarpSize]uint32
	Reads, Writes uint64
}

func (b *smemSpill) State() *State {
	st := b.Table.State()
	sm := &SMemState{Reads: b.reads, Writes: b.writes}
	sm.Vals = make([][arch.WarpSize]uint32, len(b.vals))
	copy(sm.Vals, b.vals)
	st.SMem = sm
	return st
}

func (b *smemSpill) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("rename: nil state")
	}
	if st.SMem == nil {
		return fmt.Errorf("rename: state has no shared-memory spill payload")
	}
	if len(st.SMem.Vals) != len(b.vals) {
		return fmt.Errorf("rename: smem state holds %d slots, backend expects %d",
			len(st.SMem.Vals), len(b.vals))
	}
	if err := b.Table.SetState(baseState(st)); err != nil {
		return err
	}
	copy(b.vals, st.SMem.Vals)
	b.reads, b.writes = st.SMem.Reads, st.SMem.Writes
	return nil
}
