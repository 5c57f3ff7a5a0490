package rename

import (
	"testing"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/regfile"
)

func newTable(t *testing.T, cfg Config, numRegs int) *Table {
	t.Helper()
	f, err := regfile.New(regfile.Config{NumRegs: numRegs})
	if err != nil {
		t.Fatalf("regfile.New: %v", err)
	}
	tb, err := New(cfg, f)
	if err != nil {
		t.Fatalf("rename.New: %v", err)
	}
	return tb
}

func TestBaselineLaunchAllocatesEverything(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeBaseline, RegCount: 16, MaxWarps: 48}, arch.NumPhysRegs)
	if !tb.LaunchWarp(0) {
		t.Fatal("LaunchWarp failed")
	}
	if got := tb.MappedCount(0); got != 16 {
		t.Errorf("MappedCount = %d, want 16", got)
	}
	if got := tb.File().Live(); got != 16 {
		t.Errorf("Live = %d, want 16", got)
	}
	// Bank striping is preserved for direct-mapped registers.
	for r := 0; r < 16; r++ {
		p, ok := tb.Lookup(0, isa.RegID(r))
		if !ok {
			t.Fatalf("r%d unmapped after launch", r)
		}
		if tb.File().BankOf(p) != arch.BankOf(r) {
			t.Errorf("r%d in bank %d, want %d", r, tb.File().BankOf(p), arch.BankOf(r))
		}
	}
}

func TestBaselineHasNoTableLookups(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeBaseline, RegCount: 8, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	tb.Lookup(0, 3)
	tb.PhysForWrite(0, 3, true)
	if got := tb.Stats().Lookups; got != 0 {
		t.Errorf("baseline counted %d table lookups, want 0", got)
	}
	if tb.TableBytes() != 0 {
		t.Errorf("baseline TableBytes = %d, want 0", tb.TableBytes())
	}
}

func TestCompilerAllocOnWrite(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	if got := tb.MappedCount(0); got != 0 {
		t.Fatalf("MappedCount after launch = %d, want 0 (no exempt)", got)
	}
	if _, ok := tb.Lookup(0, 5); ok {
		t.Error("unwritten register should be unmapped")
	}
	res, ok := tb.PhysForWrite(0, 5, true)
	if !ok || !res.Allocated {
		t.Fatalf("write mapping failed: %+v ok=%v", res, ok)
	}
	if tb.File().BankOf(res.Phys) != arch.BankOf(5) {
		t.Errorf("renamed r5 landed in bank %d, want %d", tb.File().BankOf(res.Phys), arch.BankOf(5))
	}
	// Second write goes in place.
	res2, ok := tb.PhysForWrite(0, 5, true)
	if !ok || res2.Allocated || res2.Phys != res.Phys {
		t.Errorf("rewrite should reuse mapping: %+v", res2)
	}
}

func TestCompilerReleaseIdempotent(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	tb.PhysForWrite(0, 5, true)
	if !tb.Release(0, 5) {
		t.Error("first release should free")
	}
	if tb.Release(0, 5) {
		t.Error("second release must be a no-op (backup pbr semantics)")
	}
	if tb.File().Live() != 0 {
		t.Errorf("Live = %d, want 0", tb.File().Live())
	}
}

func TestCompilerExemptPinnedAndUnreleasable(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, Exempt: 3, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	if got := tb.MappedCount(0); got != 3 {
		t.Fatalf("MappedCount = %d, want 3 exempt pins", got)
	}
	if tb.Release(0, 1) {
		t.Error("exempt register must not release")
	}
	if got := tb.MappedCount(0); got != 3 {
		t.Errorf("MappedCount = %d after exempt release attempt, want 3", got)
	}
	// Exempt lookups don't touch the table.
	base := tb.Stats().Lookups
	tb.Lookup(0, 2)
	if tb.Stats().Lookups != base {
		t.Error("exempt lookup counted as a table access")
	}
	tb.Lookup(0, 5)
	if tb.Stats().Lookups != base+1 {
		t.Error("non-exempt lookup not counted")
	}
}

func TestHWOnlyReleaseOnFullRedefine(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeHWOnly, RegCount: 8, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	res1, _ := tb.PhysForWrite(0, 2, true)
	if !res1.Allocated {
		t.Fatal("first write should allocate")
	}
	// Partial write merges in place.
	resP, _ := tb.PhysForWrite(0, 2, false)
	if resP.Allocated || resP.Freed || resP.Phys != res1.Phys {
		t.Errorf("partial write should stay in place: %+v", resP)
	}
	// Full redefinition recycles.
	res2, _ := tb.PhysForWrite(0, 2, true)
	if !res2.Freed || !res2.Allocated {
		t.Errorf("full redefine should free and re-allocate: %+v", res2)
	}
	if tb.Stats().Releases != 1 {
		t.Errorf("Releases = %d, want 1", tb.Stats().Releases)
	}
	// Compiler-style release is ignored in hw-only mode.
	if tb.Release(0, 2) {
		t.Error("hw-only mode must ignore pir/pbr releases")
	}
}

func TestReleaseWarpFreesEverything(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, Exempt: 2, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(1)
	tb.PhysForWrite(1, 5, true)
	tb.PhysForWrite(1, 6, true)
	// 2 exempt (r0, r1) + 2 renamed (r5, r6), counted by bank.
	if got, want := tb.ReleaseWarp(1), [arch.NumBanks]int{1, 2, 1, 0}; got != want {
		t.Errorf("ReleaseWarp freed %v per bank, want %v", got, want)
	}
	if tb.File().Live() != 0 {
		t.Errorf("Live = %d, want 0", tb.File().Live())
	}
	// A relaunch pins the exempt pair again; releasing it allocates
	// nothing.
	if n := testing.AllocsPerRun(10, func() {
		tb.LaunchWarp(1)
		if got := tb.ReleaseWarp(1); got != [arch.NumBanks]int{1, 1, 0, 0} {
			t.Fatalf("ReleaseWarp after relaunch freed %v", got)
		}
	}); n != 0 {
		t.Errorf("ReleaseWarp allocates %v times, want 0", n)
	}
}

func TestAllocFailureUnderPressure(t *testing.T) {
	// A tiny file: 16 physical registers, 4 per bank.
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, MaxWarps: 8}, 16)
	// Fill bank 1 (registers r1, r5 map to bank 1) across warps.
	for w := 0; w < 4; w++ {
		if _, ok := tb.PhysForWrite(w, 1, true); !ok {
			t.Fatalf("warp %d alloc failed early", w)
		}
	}
	if _, ok := tb.PhysForWrite(4, 1, true); ok {
		t.Error("expected bank-1 exhaustion")
	}
	if tb.Stats().FailedAllocs != 1 {
		t.Errorf("FailedAllocs = %d, want 1", tb.Stats().FailedAllocs)
	}
	// A release unblocks it.
	tb.Release(0, 1)
	if _, ok := tb.PhysForWrite(4, 1, true); !ok {
		t.Error("alloc should succeed after release")
	}
}

func TestSpillAndRestoreWarp(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, Exempt: 1, MaxWarps: 4}, arch.NumPhysRegs)
	tb.LaunchWarp(0)
	full := ^uint32(0)
	var vals [arch.WarpSize]uint32
	for l := range vals {
		vals[l] = uint32(l) * 3
	}
	res, _ := tb.PhysForWrite(0, 5, true)
	tb.File().Write(res.Phys, &vals, full)
	res6, _ := tb.PhysForWrite(0, 6, true)
	tb.File().Write(res6.Phys, &vals, full)

	spilled := tb.SpillWarp(0)
	if len(spilled) != 2 {
		t.Fatalf("spilled %d registers, want 2 (exempt excluded)", len(spilled))
	}
	if got := tb.MappedCount(0); got != 1 { // only the exempt pin remains
		t.Errorf("MappedCount after spill = %d, want 1", got)
	}
	if !tb.RestoreWarp(0, spilled) {
		t.Fatal("RestoreWarp failed")
	}
	p, ok := tb.Lookup(0, 5)
	if !ok {
		t.Fatal("r5 unmapped after restore")
	}
	if got := tb.File().Peek(p); got != vals {
		t.Error("restored values differ")
	}
}

func TestRestoreWarpAllOrNothing(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, MaxWarps: 8}, 16)
	tb.PhysForWrite(0, 1, true)
	spilled := tb.SpillWarp(0)
	// Exhaust bank 1.
	for w := 1; w <= 4; w++ {
		tb.PhysForWrite(w, 1, true)
	}
	if tb.RestoreWarp(0, spilled) {
		t.Error("RestoreWarp should fail with bank 1 full")
	}
	if tb.MappedCount(0) != 0 {
		t.Error("failed restore must leave no partial mappings")
	}
}

func TestTableBytes(t *testing.T) {
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 20, Exempt: 3, MaxWarps: 48}, arch.NumPhysRegs)
	// (20-3) regs x 48 warps x 10 bits = 8160 bits = 1020 bytes.
	if got := tb.TableBytes(); got != 1020 {
		t.Errorf("TableBytes = %d, want 1020", got)
	}
}

func TestConfigValidation(t *testing.T) {
	f, _ := regfile.New(regfile.Config{NumRegs: arch.NumPhysRegs})
	bad := []Config{
		{Mode: ModeCompiler, RegCount: 0, MaxWarps: 4},
		{Mode: ModeCompiler, RegCount: 64, MaxWarps: 4},
		{Mode: ModeCompiler, RegCount: 8, Exempt: 9, MaxWarps: 4},
		{Mode: ModeCompiler, RegCount: 8, Exempt: -1, MaxWarps: 4},
		{Mode: ModeCompiler, RegCount: 8, MaxWarps: 0},
		{Mode: ModeCompiler, RegCount: 8, MaxWarps: 49},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, f); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLaunchWarpRollsBackOnExhaustion(t *testing.T) {
	// 16 physical registers but each warp pins 8: the third launch fails
	// cleanly.
	tb := newTable(t, Config{Mode: ModeBaseline, RegCount: 8, MaxWarps: 8}, 16)
	if !tb.LaunchWarp(0) || !tb.LaunchWarp(1) {
		t.Fatal("first two launches should fit")
	}
	live := tb.File().Live()
	if tb.LaunchWarp(2) {
		t.Fatal("third launch should fail")
	}
	if tb.File().Live() != live {
		t.Errorf("failed launch leaked registers: %d -> %d", live, tb.File().Live())
	}
	if tb.MappedCount(2) != 0 {
		t.Error("failed launch left mappings")
	}
}

func TestCrossWarpReuseTracking(t *testing.T) {
	// Warp 0 allocates, releases; warp 1 gets the same physical register:
	// inter-warp sharing (§5). Warp 0 re-acquiring afterwards is
	// same-warp reuse (the Fig. 2(a) loop pattern).
	tb := newTable(t, Config{Mode: ModeCompiler, RegCount: 8, MaxWarps: 4}, 16)
	res0, _ := tb.PhysForWrite(0, 1, true)
	tb.Release(0, 1)
	res1, _ := tb.PhysForWrite(1, 1, true)
	if res1.Phys != res0.Phys {
		t.Fatalf("expected reuse of physical %d, got %d", res0.Phys, res1.Phys)
	}
	s := tb.Stats()
	if s.CrossWarpReuse != 1 {
		t.Errorf("CrossWarpReuse = %d, want 1", s.CrossWarpReuse)
	}
	tb.Release(1, 1)
	tb.PhysForWrite(1, 1, true)
	if got := tb.Stats().SameWarpReuse; got != 1 {
		t.Errorf("SameWarpReuse = %d, want 1", got)
	}
}
