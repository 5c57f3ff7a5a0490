package jobs

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"regvirt/internal/isa"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
)

// TestModeKeysDistinct proves the content address separates every
// register-file backend: the same workload under the five modes yields
// five distinct keys, so no mode can ever be served another mode's
// cached result.
func TestModeKeysDistinct(t *testing.T) {
	keys := map[string]string{}
	for _, mode := range rename.ModeNames() {
		j := Job{Workload: "VectorAdd", Mode: mode, PhysRegs: 512}
		if err := j.Validate(); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		k := j.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("modes %s and %s collide on key %s", prev, mode, k)
		}
		keys[k] = mode
	}
	if len(keys) != len(rename.ModeNames()) {
		t.Errorf("%d distinct keys for %d modes", len(keys), len(rename.ModeNames()))
	}
}

// TestBackendKnobKeys pins how the backend-specific knobs participate
// in the content address: explicit defaults alias the implicit ones,
// differing values separate, and knobs a mode never reads cannot
// fragment its key space.
func TestBackendKnobKeys(t *testing.T) {
	base := Job{Workload: "VectorAdd", Mode: "regcache", PhysRegs: 512}

	// Default-vs-explicit-default: one key.
	explicit := base
	explicit.RFCacheEntries = 64 // arch.RFCacheEntries
	if base.Key() != explicit.Key() {
		t.Error("implicit and explicit default rfcache address different results")
	}

	// A different cache geometry is a different simulation.
	small := base
	small.RFCacheEntries = 16
	if small.Key() == base.Key() {
		t.Error("rfcache 16 and 64 collide")
	}
	wt := base
	wt.RFCacheWriteThrough = true
	if wt.Key() == base.Key() {
		t.Error("write-through and write-back collide")
	}

	// Same for the spill knob.
	spill := Job{Workload: "VectorAdd", Mode: "smemspill", PhysRegs: 512}
	spill2 := spill
	spill2.SpillRegs = 2
	if spill.Key() == spill2.Key() {
		t.Error("auto-fit and explicit spill_regs collide")
	}

	// Alias spelling collapses onto the canonical key.
	hw := Job{Workload: "VectorAdd", Mode: "hwonly", PhysRegs: 512}
	alias := hw
	alias.Mode = "hw-only"
	if hw.Key() != alias.Key() {
		t.Error(`"hwonly" and "hw-only" address different results`)
	}
}

// TestBackendKnobValidation exercises the cross-field grammar: backend
// knobs are only legal with the mode that reads them, and an unknown
// mode's error lists the whole menu.
func TestBackendKnobValidation(t *testing.T) {
	bad := []Job{
		{Workload: "VectorAdd", Mode: "compiler", RFCacheEntries: 16},
		{Workload: "VectorAdd", Mode: "baseline", RFCacheWriteThrough: true},
		{Workload: "VectorAdd", Mode: "regcache", RFCacheEntries: -1},
		{Workload: "VectorAdd", Mode: "compiler", SpillRegs: 4},
		{Workload: "VectorAdd", Mode: "smemspill", SpillRegs: -1},
		{Workload: "VectorAdd", Mode: "smemspill", SpillRegs: 10_000},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid job accepted", i, j)
		}
	}
	err := Job{Workload: "VectorAdd", Mode: "virtual"}.Validate()
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, name := range rename.ModeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-mode error %q does not list %q", err, name)
		}
	}
}

// TestExecuteNewBackends smoke-runs both wrapper backends end to end
// through the jobs path and checks their extra counters surface in the
// result encoding.
func TestExecuteNewBackends(t *testing.T) {
	res, err := Execute(context.Background(), Job{
		Workload: "VectorAdd", Mode: "regcache", PhysRegs: 512,
	})
	if err != nil {
		t.Fatalf("regcache: %v", err)
	}
	if res.Backend == nil {
		t.Fatal("regcache result has no backend block")
	}
	if res.Backend.CacheHits+res.Backend.CacheMisses == 0 {
		t.Error("regcache run recorded no cache probes")
	}
	if res.Config.RFCacheEntries != 64 {
		t.Errorf("result echoes rfcache %d, want normalized default 64", res.Config.RFCacheEntries)
	}

	res, err = Execute(context.Background(), Job{
		Workload: "VectorAdd", Mode: "smemspill", PhysRegs: 512, SpillRegs: 2,
	})
	if err != nil {
		t.Fatalf("smemspill: %v", err)
	}
	if res.Backend == nil {
		t.Fatal("smemspill result has no backend block")
	}
	if res.Backend.SMemReads+res.Backend.SMemWrites == 0 {
		t.Error("smemspill run with spill_regs 2 recorded no shared-memory traffic")
	}

	// Classic modes keep their historical encoding: no backend block.
	res, err = Execute(context.Background(), Job{Workload: "VectorAdd", Mode: "compiler"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != nil {
		t.Error("compiler-mode result grew a backend block")
	}
	if res.Config.RFCacheEntries != 0 || res.Config.SpillRegs != 0 {
		t.Error("compiler-mode result echoes backend knobs")
	}
}

// TestHugeRegCacheRunsSmall submits a regcache job whose rfcache is far
// larger than any register file: the cache can never hold more lines
// than there are physical registers, so the job must cost what a
// default-sized one does, on one SM and on the whole device, instead of
// memory proportional to the requested entry count.
func TestHugeRegCacheRunsSmall(t *testing.T) {
	const budget = 64 << 20 // bytes; the huge cache alone would be ~136 GB
	for _, gpu := range []bool{false, true} {
		j := Job{Workload: "VectorAdd", Mode: "regcache", RFCacheEntries: 1_000_000_000, WholeGPU: gpu}
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Execute(context.Background(), j); err != nil {
			t.Fatalf("gpu=%v: %v", gpu, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("gpu=%v: job allocated %d bytes, want at most %d", gpu, got, budget)
		} else {
			t.Logf("gpu=%v: job allocated %d bytes", gpu, got)
		}
	}
}

// TestLargestRegisterFileRuns runs every backend with the largest
// register file a job may ask for (sim.MaxPhysRegs), on one SM and on
// the whole device. smemspill demotes as many registers as it may, so
// its shared-memory register numbers, which start at the file size,
// reach their highest: they must still fit an int16 physical register.
func TestLargestRegisterFileRuns(t *testing.T) {
	const budget = 64 << 20 // bytes
	for _, mode := range rename.ModeNames() {
		for _, gpu := range []bool{false, true} {
			j := Job{Workload: "MatrixMul", Mode: mode, PhysRegs: sim.MaxPhysRegs, WholeGPU: gpu}
			if mode == "smemspill" {
				j.SpillRegs = isa.MaxRegsPerThread - 1
			}
			if err := j.Validate(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Execute(context.Background(), j)
			if err != nil {
				t.Fatalf("%s gpu=%v: %v", mode, gpu, err)
			}
			runtime.ReadMemStats(&after)
			if res.Cycles == 0 {
				t.Errorf("%s gpu=%v: no cycles simulated", mode, gpu)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s gpu=%v: job allocated %d bytes, want at most %d", mode, gpu, got, budget)
			} else {
				t.Logf("%s gpu=%v: job allocated %d bytes", mode, gpu, got)
			}
		}
	}
}
