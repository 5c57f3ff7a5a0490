package sim

import (
	"reflect"
	"testing"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/emu"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

func gpuTestKernel(t *testing.T, noFlags bool) *compiler.Kernel {
	t.Helper()
	k, err := compiler.Compile(isa.MustParse(phase1Src), compiler.Options{
		TableBytes: 1024, ResidentWarps: 8, NoFlags: noFlags,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRunGPUExecutesWholeGrid(t *testing.T) {
	k := gpuTestKernel(t, true)
	spec := LaunchSpec{
		Kernel: k, GridCTAs: 48, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x1000, 0x8000},
	}
	res, err := RunGPU(Config{Mode: rename.ModeBaseline}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// All 48 CTAs x 64 threads must have stored.
	if len(res.Stores) != 48*64 {
		t.Fatalf("stored %d words, want %d", len(res.Stores), 48*64)
	}
	if len(res.PerSM) != arch.NumSMs {
		t.Fatalf("PerSM has %d entries", len(res.PerSM))
	}
	// The grid is bigger than one SM's share: multiple SMs must have run.
	active := 0
	for _, sm := range res.PerSM {
		if sm.Instrs > 0 {
			active++
		}
	}
	if active < 8 {
		t.Errorf("only %d SMs executed work", active)
	}
}

func TestRunGPUMatchesEmulator(t *testing.T) {
	k := gpuTestKernel(t, false)
	spec := LaunchSpec{
		Kernel: k, GridCTAs: 40, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x1000, 0x8000},
	}
	got, err := RunGPU(Config{Mode: rename.ModeCompiler, PhysRegs: 512, PoisonReleased: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := emu.Run(k.Prog, emu.GridSpec{CTAs: 40, ThreadsPerCTA: 64, Consts: spec.Consts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stores, want.Stores) {
		t.Error("whole-GPU run disagrees with the reference emulator")
	}
	if got.AllocationReduction() <= 0 {
		t.Error("no device-level allocation reduction reported")
	}
}

func TestRunGPUSharedDRAMSlowsMemoryBoundGrids(t *testing.T) {
	// A memory-heavy kernel across all SMs must feel the shared-DRAM
	// bucket: device cycles exceed a single SM running 1/16 of the grid.
	k := gpuTestKernel(t, true)
	spec := LaunchSpec{
		Kernel: k, GridCTAs: 16 * 6, ThreadsPerCTA: 128, ConcCTAs: 4,
		Consts: []uint32{128, 0x1000, 0x8000},
	}
	solo, err := Run(Config{Mode: rename.ModeBaseline}, spec) // 6 CTAs on one SM
	if err != nil {
		t.Fatal(err)
	}
	device, err := RunGPU(Config{Mode: rename.ModeBaseline}, spec) // 96 CTAs over 16 SMs
	if err != nil {
		t.Fatal(err)
	}
	if device.Cycles < solo.Cycles {
		t.Errorf("device (%d cycles) finished before a lone SM with the same per-SM load (%d)",
			device.Cycles, solo.Cycles)
	}
	if device.Instrs != 16*solo.Instrs {
		t.Errorf("device instrs %d != 16 x %d", device.Instrs, solo.Instrs)
	}
}

func TestRunGPURejectsUndispatchableCTAs(t *testing.T) {
	// Baseline mode with a register file smaller than one CTA's pinned
	// allocation can never launch: the device must fail loudly.
	k := gpuTestKernel(t, true) // 6 regs x 8 warps = 48 per CTA
	spec := LaunchSpec{
		Kernel: k, GridCTAs: 4, ThreadsPerCTA: 256, ConcCTAs: 1,
		Consts: []uint32{256, 0x1000, 0x8000},
	}
	cfg := Config{Mode: rename.ModeBaseline, PhysRegs: 16, MaxCycles: 100_000}
	if _, err := RunGPU(cfg, spec); err == nil {
		t.Error("undispatchable grid must fail, not hang or drop CTAs")
	}
}

// TestRunGPUFlagCacheOff: a device run with the flag cache disabled
// (FlagCacheEntries -1, the Dynamic-0 configuration) probes the cache
// for every pir and hits on no SM, while the default cache does hit.
func TestRunGPUFlagCacheOff(t *testing.T) {
	spec := LaunchSpec{
		Kernel: compileFor(t, loopSrc, compiler.Options{}), GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 4,
		Consts: []uint32{64, 0x1000, 50, 256 * 4, 0x50000},
	}
	off, err := RunGPU(Config{Mode: rename.ModeCompiler, FlagCacheEntries: -1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunGPU(Config{Mode: rename.ModeCompiler}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var offProbes, onHits uint64
	for i, res := range off.PerSM {
		if res.Flag.Hits != 0 {
			t.Errorf("SM %d: %d flag-cache hits with the cache disabled", i, res.Flag.Hits)
		}
		offProbes += res.Flag.Probes
		onHits += on.PerSM[i].Flag.Hits
	}
	if offProbes == 0 || onHits == 0 {
		t.Fatalf("%d probes without the cache, %d hits with it: the kernel exercises no pirs", offProbes, onHits)
	}
}
