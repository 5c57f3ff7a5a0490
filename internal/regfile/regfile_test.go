package regfile

import (
	"math/rand"
	"reflect"
	"testing"

	"regvirt/internal/arch"
)

func newFile(t *testing.T, cfg Config) *File {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{NumRegs: 100}); err == nil {
		t.Error("accepted NumRegs not divisible by geometry")
	}
	if _, err := New(Config{NumRegs: 0}); err == nil {
		t.Error("accepted zero registers")
	}
}

func TestAllocStaysInBank(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	for bank := 0; bank < arch.NumBanks; bank++ {
		p, _, ok := f.Alloc(bank)
		if !ok {
			t.Fatalf("Alloc(bank %d) failed", bank)
		}
		if got := f.BankOf(p); got != bank {
			t.Errorf("Alloc(bank %d) returned register in bank %d", bank, got)
		}
	}
}

func TestAllocExhaustsBank(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	per := arch.NumPhysRegs / arch.NumBanks
	for i := 0; i < per; i++ {
		if _, _, ok := f.Alloc(0); !ok {
			t.Fatalf("Alloc %d/%d failed early", i, per)
		}
	}
	if _, _, ok := f.Alloc(0); ok {
		t.Error("Alloc succeeded on a full bank")
	}
	if f.Stats().FailedAllocs != 1 {
		t.Errorf("FailedAllocs = %d, want 1", f.Stats().FailedAllocs)
	}
	// Other banks still have space.
	if _, _, ok := f.Alloc(1); !ok {
		t.Error("bank 1 should still have space")
	}
}

func TestReleaseMakesRoom(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	p, _, _ := f.Alloc(2)
	live := f.Live()
	f.Release(p)
	if f.Live() != live-1 {
		t.Errorf("Live = %d after release, want %d", f.Live(), live-1)
	}
	q, _, ok := f.Alloc(2)
	if !ok || q != p {
		t.Errorf("expected to get register %d back, got %d ok=%v", p, q, ok)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	p, _, _ := f.Alloc(0)
	f.Release(p)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	f.Release(p)
}

func TestWriteMaskedLanes(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	p, _, _ := f.Alloc(0)
	var a, b [arch.WarpSize]uint32
	for l := range a {
		a[l] = 100 + uint32(l)
		b[l] = 200 + uint32(l)
	}
	f.Write(p, &a, ^uint32(0))
	f.Write(p, &b, 0x0000ffff) // only low 16 lanes
	got := f.Peek(p)
	for l := 0; l < 16; l++ {
		if got[l] != b[l] {
			t.Fatalf("lane %d = %d, want %d", l, got[l], b[l])
		}
	}
	for l := 16; l < arch.WarpSize; l++ {
		if got[l] != a[l] {
			t.Fatalf("masked lane %d = %d, want preserved %d", l, got[l], a[l])
		}
	}
}

func TestAccessCounters(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	p, _, _ := f.Alloc(0)
	var v [arch.WarpSize]uint32
	f.Write(p, &v, ^uint32(0))
	f.Read(p)
	f.Read(p)
	s := f.Stats()
	if s.Writes != 1 || s.Reads != 2 {
		t.Errorf("Reads/Writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
}

func TestGatingWakeupPenalty(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PowerGating: true, WakeupLatency: 3, Policy: SubarrayFirst})
	if f.AwakeSubarrays() != 0 {
		t.Fatalf("gated file starts with %d awake subarrays", f.AwakeSubarrays())
	}
	_, wake, _ := f.Alloc(0)
	if wake != 3 {
		t.Errorf("first alloc wake penalty = %d, want 3", wake)
	}
	if f.AwakeSubarrays() != 1 {
		t.Errorf("awake subarrays = %d, want 1", f.AwakeSubarrays())
	}
	// Second alloc in the same bank lands in the awake subarray: no penalty.
	_, wake2, _ := f.Alloc(0)
	if wake2 != 0 {
		t.Errorf("second alloc wake penalty = %d, want 0", wake2)
	}
}

func TestGatingSleepsEmptySubarray(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PowerGating: true, WakeupLatency: 1, Policy: SubarrayFirst})
	p, _, _ := f.Alloc(0)
	f.Release(p)
	if f.AwakeSubarrays() != 0 {
		t.Errorf("empty subarray not gated: %d awake", f.AwakeSubarrays())
	}
	if f.Stats().Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1", f.Stats().Wakeups)
	}
}

func TestSubarrayFirstConsolidates(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PowerGating: true, WakeupLatency: 1, Policy: SubarrayFirst})
	per := arch.NumPhysRegs / arch.NumBanks / arch.SubarraysPerBank // regs per subarray
	// Fill one subarray exactly; everything should stay in a single
	// subarray of bank 0.
	for i := 0; i < per; i++ {
		f.Alloc(0)
	}
	if f.AwakeSubarrays() != 1 {
		t.Errorf("awake = %d after filling one subarray's worth, want 1", f.AwakeSubarrays())
	}
	// One more spills into a second subarray.
	f.Alloc(0)
	if f.AwakeSubarrays() != 2 {
		t.Errorf("awake = %d, want 2", f.AwakeSubarrays())
	}
}

func TestTickPowerAccounting(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PowerGating: true, WakeupLatency: 1, Policy: SubarrayFirst})
	f.Alloc(0)
	f.TickPower(1)
	f.TickPower(1)
	s := f.Stats()
	want := uint64(2 * arch.NumBanks * arch.SubarraysPerBank)
	if s.TotalSubarrayCyc != want {
		t.Errorf("TotalSubarrayCyc = %d, want %d", s.TotalSubarrayCyc, want)
	}
	if s.AwakeSubarrayCyc != 2 {
		t.Errorf("AwakeSubarrayCyc = %d, want 2 (one awake subarray x two cycles)", s.AwakeSubarrayCyc)
	}
	// Without gating every subarray leaks.
	g := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	g.TickPower(1)
	if got := g.Stats().AwakeSubarrayCyc; got != uint64(arch.NumBanks*arch.SubarraysPerBank) {
		t.Errorf("ungated AwakeSubarrayCyc = %d, want all", got)
	}
	// A bulk tick accrues what as many single ticks would.
	f.TickPower(5)
	if s := f.Stats(); s.TotalSubarrayCyc != 7*uint64(arch.NumBanks*arch.SubarraysPerBank) || s.AwakeSubarrayCyc != 7 {
		t.Errorf("after 2+5 cycles: TotalSubarrayCyc = %d, AwakeSubarrayCyc = %d", s.TotalSubarrayCyc, s.AwakeSubarrayCyc)
	}
}

func TestPeakLiveAndTouched(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs})
	var regs []PhysReg
	for i := 0; i < 10; i++ {
		p, _, _ := f.Alloc(i % arch.NumBanks)
		regs = append(regs, p)
	}
	for _, p := range regs {
		f.Release(p)
	}
	// Re-allocate: touched should not grow (same registers reused).
	for i := 0; i < 10; i++ {
		f.Alloc(i % arch.NumBanks)
	}
	s := f.Stats()
	if s.PeakLive != 10 {
		t.Errorf("PeakLive = %d, want 10", s.PeakLive)
	}
	if s.TouchedRegs != 10 {
		t.Errorf("TouchedRegs = %d, want 10 (reuse must not touch new registers)", s.TouchedRegs)
	}
}

// Property: alloc/release sequences never corrupt the free accounting.
func TestAllocReleaseProperty(t *testing.T) {
	f := newFile(t, Config{NumRegs: 512, PowerGating: true, WakeupLatency: 1, Policy: SubarrayFirst})
	rng := rand.New(rand.NewSource(42))
	var held []PhysReg
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 && len(held) < 400 {
			if p, _, ok := f.Alloc(rng.Intn(arch.NumBanks)); ok {
				held = append(held, p)
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			f.Release(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		if f.Live() != len(held) {
			t.Fatalf("step %d: Live=%d, held=%d", step, f.Live(), len(held))
		}
		if f.FreeTotal() != 512-len(held) {
			t.Fatalf("step %d: FreeTotal=%d, want %d", step, f.FreeTotal(), 512-len(held))
		}
	}
	// Awake subarray live counts must be consistent: release everything
	// and expect full gating.
	for _, p := range held {
		f.Release(p)
	}
	if f.AwakeSubarrays() != 0 {
		t.Errorf("after releasing all: %d subarrays awake", f.AwakeSubarrays())
	}
}

func TestSpreadPolicyScattersAcrossSubarrays(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PowerGating: true, WakeupLatency: 1, Policy: Spread})
	// A handful of allocations should wake several subarrays (the
	// adversarial case for gating), unlike SubarrayFirst which stays at 1.
	for i := 0; i < 4; i++ {
		f.Alloc(0)
	}
	if f.AwakeSubarrays() < 3 {
		t.Errorf("Spread woke only %d subarrays, want >= 3", f.AwakeSubarrays())
	}
	if err := f.SelfCheck(); err != nil {
		t.Errorf("SelfCheck: %v", err)
	}
}

func TestSelfCheckPasses(t *testing.T) {
	f := newFile(t, Config{NumRegs: 512, PowerGating: true, WakeupLatency: 1, Policy: SubarrayFirst})
	var held []PhysReg
	for i := 0; i < 100; i++ {
		if p, _, ok := f.Alloc(i % arch.NumBanks); ok {
			held = append(held, p)
		}
	}
	for i := 0; i < 50; i++ {
		f.Release(held[i])
	}
	if err := f.SelfCheck(); err != nil {
		t.Errorf("SelfCheck: %v", err)
	}
}

func TestPoisonOnRelease(t *testing.T) {
	f := newFile(t, Config{NumRegs: arch.NumPhysRegs, PoisonOnRelease: true})
	p, _, _ := f.Alloc(0)
	var v [arch.WarpSize]uint32
	for l := range v {
		v[l] = 7
	}
	f.Write(p, &v, ^uint32(0))
	f.Release(p)
	got := f.Peek(p)
	for l := range got {
		if got[l] != PoisonValue {
			t.Fatalf("lane %d = %#x after release, want poison", l, got[l])
		}
	}
}

// TestStateRoundTrip checks that value storage allocated on first use
// still snapshots as the whole file: State lists every register (zero
// where storage was never touched), and SetState into a fresh file
// restores the values and reproduces the same State.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{NumRegs: arch.NumPhysRegs}
	f := newFile(t, cfg)
	var v [arch.WarpSize]uint32
	for l := range v {
		v[l] = 7 + uint32(l)
	}
	last := PhysReg(arch.NumPhysRegs - 1)
	f.Write(0, &v, ^uint32(0))
	f.Write(last, &v, 0x1)
	st := f.State()
	if len(st.Values) != arch.NumPhysRegs {
		t.Fatalf("State has %d values, want %d", len(st.Values), arch.NumPhysRegs)
	}
	if st.Values[0] != v || st.Values[last][0] != v[0] || st.Values[last][1] != 0 {
		t.Errorf("State values %v / %v do not match the writes", st.Values[0], st.Values[last])
	}
	if st.Values[arch.NumPhysRegs/2] != ([arch.WarpSize]uint32{}) {
		t.Error("an untouched register is not zero in State")
	}
	g := newFile(t, cfg)
	if err := g.SetState(st); err != nil {
		t.Fatal(err)
	}
	if g.Peek(0) != v || g.Peek(last) != f.Peek(last) {
		t.Error("SetState did not restore the written values")
	}
	if !reflect.DeepEqual(g.State(), st) {
		t.Error("restored file's State differs from the one it was restored from")
	}
}
