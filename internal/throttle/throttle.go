// Package throttle implements GPU-shrink's forward-progress guarantee
// (§8.1). The warp scheduler keeps per-CTA register balance counters
// C - k_i (worst-case registers the CTA may still need). When the free
// register pool can no longer cover the smallest remaining balance, only
// warps of the CTA with that smallest balance may issue — it either
// finishes soon or releases registers — until headroom returns.
//
// Because renaming is bank-preserving (§7.1), a bank can exhaust while
// the total pool looks healthy; the balances are therefore tracked per
// bank as well, a direct extension of the paper's counters to the banked
// allocator. The single-CTA overflow corner case falls back to register
// spilling, which the simulator drives through NeedSpill.
package throttle

import (
	"fmt"

	"regvirt/internal/arch"
)

// Policy selects how aggressively the governor gates allocations.
type Policy int

const (
	// PolicyReservation (default) is reactive: allocations run freely
	// until the drain CTA actually fails to find a register in a bank;
	// from then on, freed registers in that bank are reserved for the
	// drain CTA until it allocates there again. This keeps the paper's
	// forward-progress property (the neediest CTA always gets registers
	// first) without serializing whole CTAs behind a worst-case estimate.
	PolicyReservation Policy = iota
	// PolicyWorstCase is the paper's §8.1 scheme verbatim: when the free
	// pool cannot cover the smallest worst-case balance C-k, only the
	// drain CTA may allocate. Kept as an ablation (BenchmarkAblation*).
	PolicyWorstCase
)

// Governor tracks per-CTA register balances for one SM.
type Governor struct {
	// Policy selects the gating scheme.
	Policy Policy
	// maxPerCTA is C = N x M: registers per warp times warps per CTA.
	maxPerCTA int
	// maxPerBank[b] is C_b: worst-case registers CTA needs in bank b.
	maxPerBank [arch.NumBanks]int
	// cta[s] is CTA slot s's balance, for s < slots.
	cta   [arch.MaxCTAsPerSM]ctaBalance
	slots int
	// reservedBank/reservedSlot form the single outstanding drain
	// reservation (PolicyReservation); reservedBank == -1 means none.
	// A single reservation cannot form circular waits between CTAs.
	reservedBank, reservedSlot int
	// Throttles counts scheduler decisions that restricted issue to the
	// drain CTA; Blocked counts denied warps.
	Throttles, Blocked uint64
}

// ctaBalance is k_i, in total and per bank, of one CTA slot.
type ctaBalance struct {
	allocated int
	bank      [arch.NumBanks]int
	active    bool
}

// New builds a governor for up to slots (at most arch.MaxCTAsPerSM)
// concurrent CTAs running a kernel with regsPerWarp architected
// registers and warpsPerCTA warps per CTA.
func New(slots, regsPerWarp, warpsPerCTA int) (*Governor, error) {
	if slots <= 0 || slots > arch.MaxCTAsPerSM || regsPerWarp <= 0 || warpsPerCTA <= 0 {
		return nil, fmt.Errorf("throttle: invalid geometry (%d slots, %d regs/warp, %d warps/CTA)",
			slots, regsPerWarp, warpsPerCTA)
	}
	g := &Governor{
		maxPerCTA: regsPerWarp * warpsPerCTA,
		slots:     slots,
	}
	for r := 0; r < regsPerWarp; r++ {
		g.maxPerBank[arch.BankOf(r)] += warpsPerCTA
	}
	g.reservedBank = -1
	g.reservedSlot = -1
	return g, nil
}

// CTALaunched marks a CTA slot active with zero registers allocated.
func (g *Governor) CTALaunched(slot int) {
	g.cta[slot] = ctaBalance{active: true}
}

// CTACompleted frees the slot and drops its reservation.
func (g *Governor) CTACompleted(slot int) {
	g.cta[slot] = ctaBalance{}
	if g.reservedSlot == slot {
		g.reservedBank, g.reservedSlot = -1, -1
	}
}

// OnAlloc and OnRelease track k_i per bank. A successful allocation by
// the reservation holder releases its reservation.
func (g *Governor) OnAlloc(slot, bank int) {
	g.cta[slot].allocated++
	g.cta[slot].bank[bank]++
	if g.reservedSlot == slot && g.reservedBank == bank {
		g.reservedBank, g.reservedSlot = -1, -1
	}
}

func (g *Governor) OnRelease(slot, bank int) {
	g.OnReleaseN(slot, bank, 1)
}

// OnReleaseN records n registers released at once in one bank (a warp
// release, rename.Backend.ReleaseWarp).
func (g *Governor) OnReleaseN(slot, bank, n int) {
	g.cta[slot].allocated -= n
	g.cta[slot].bank[bank] -= n
}

// Allocated returns k for a CTA slot.
func (g *Governor) Allocated(slot int) int { return g.cta[slot].allocated }

// Balance returns C - k for a CTA slot (worst-case remaining demand).
func (g *Governor) Balance(slot int) int { return g.maxPerCTA - g.cta[slot].allocated }

// BankBalance returns C_b - k_b for a CTA slot and bank.
func (g *Governor) BankBalance(slot, bank int) int {
	return g.maxPerBank[bank] - g.cta[slot].bank[bank]
}

// Drain returns the active CTA with the minimum total balance — the one
// the scheduler favours under pressure (§8.1).
func (g *Governor) Drain() int { return g.drain() }

// drain returns the active CTA with the minimum total balance (ties
// broken by slot index, §8.1 "arbitrarily breaking ties"), or -1.
func (g *Governor) drain() int {
	best, bestBal := -1, 0
	for s := range g.slots {
		if !g.cta[s].active {
			continue
		}
		if b := g.Balance(s); best == -1 || b < bestBal {
			best, bestBal = s, b
		}
	}
	return best
}

// feasible reports whether CTA slot could complete in the worst case
// with the given free registers.
func (g *Governor) feasible(slot, freeTotal int, freeBank [arch.NumBanks]int) bool {
	if freeTotal < g.Balance(slot) {
		return false
	}
	for b := 0; b < arch.NumBanks; b++ {
		if freeBank[b] < g.BankBalance(slot, b) {
			return false
		}
	}
	return true
}

// MayIssue decides whether a warp of the given CTA slot may issue an
// instruction that needs a fresh physical register. Every CTA proceeds
// while at least one CTA remains worst-case feasible; otherwise only the
// drain CTA (minimum total balance) may allocate. Instructions that do
// not allocate (in-place writes, stores, branches, releases) are never
// gated — they can only return registers to the pool, so letting them
// run preserves the §8.1 invariant while keeping non-drain warps
// releasing.
// bank is the destination bank of the allocating instruction.
func (g *Governor) MayIssue(slot, bank, freeTotal int, freeBank [arch.NumBanks]int) bool {
	d := g.drain()
	if d == -1 {
		return true
	}
	if g.Policy == PolicyReservation {
		if g.reservedBank == bank && g.reservedSlot != slot {
			g.Throttles++
			g.Blocked++
			return false
		}
		return true
	}
	for s := range g.slots {
		if g.cta[s].active && g.feasible(s, freeTotal, freeBank) {
			return true
		}
	}
	g.Throttles++
	if slot == d {
		return true
	}
	g.Blocked++
	return false
}

// OnAllocBlocked records that a warp of the given CTA found its bank
// empty. If the CTA is the drain and no reservation is outstanding, it
// takes the reservation: freed registers in that bank are then held for
// it until it allocates there.
func (g *Governor) OnAllocBlocked(slot, bank int) {
	if g.Policy != PolicyReservation {
		return
	}
	if g.reservedBank == -1 && slot == g.drain() {
		g.reservedBank, g.reservedSlot = bank, slot
		g.Throttles++
	}
}

// Reserved returns the CTA slot holding a reservation on the bank, or -1.
func (g *Governor) Reserved(bank int) int {
	if g.reservedBank == bank {
		return g.reservedSlot
	}
	return -1
}

// NeedSpill reports the §8.1 corner case: the drain CTA alone cannot
// complete in the worst case even with every other CTA held back, so the
// scheduler must evacuate a warp's registers to memory.
func (g *Governor) NeedSpill(freeTotal int, freeBank [arch.NumBanks]int) bool {
	d := g.drain()
	return d != -1 && !g.feasible(d, freeTotal, freeBank)
}

// State is a deep, serializable copy of the governor's mutable state
// (balances, reservation, counters — the C constants are derived from
// the construction geometry and need not round-trip).
type State struct {
	Allocated    []int
	AllocBank    [][arch.NumBanks]int
	Active       []bool
	ReservedBank int
	ReservedSlot int
	Throttles    uint64
	Blocked      uint64
}

// State deep-copies the governor's mutable state.
func (g *Governor) State() *State {
	st := &State{
		Allocated:    make([]int, g.slots),
		AllocBank:    make([][arch.NumBanks]int, g.slots),
		Active:       make([]bool, g.slots),
		ReservedBank: g.reservedBank,
		ReservedSlot: g.reservedSlot,
		Throttles:    g.Throttles,
		Blocked:      g.Blocked,
	}
	for s, c := range g.cta[:g.slots] {
		st.Allocated[s], st.AllocBank[s], st.Active[s] = c.allocated, c.bank, c.active
	}
	return st
}

// SetState restores a previously captured State into a governor built
// with the same geometry.
func (g *Governor) SetState(st *State) error {
	if st == nil {
		return fmt.Errorf("throttle: nil state")
	}
	if len(st.Allocated) != g.slots || len(st.AllocBank) != g.slots || len(st.Active) != g.slots {
		return fmt.Errorf("throttle: state geometry mismatch (%d slots vs %d)",
			len(st.Allocated), g.slots)
	}
	for s := range g.slots {
		g.cta[s] = ctaBalance{allocated: st.Allocated[s], bank: st.AllocBank[s], active: st.Active[s]}
	}
	g.reservedBank = st.ReservedBank
	g.reservedSlot = st.ReservedSlot
	g.Throttles = st.Throttles
	g.Blocked = st.Blocked
	return nil
}
