package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

// The device engine's contract: RunGPU is a function of its Config and
// LaunchSpec, so the same launch gives a byte-identical GPUResult (as
// canonical JSON) every time, on its own or beside other runs of the
// same launch, across every rename mode, both register-file sizes, and
// structurally different workloads. The service runs jobs side by side,
// so the matrix also runs launches concurrently; under -race (make
// verify and make modes run it so) that certifies two device runs
// share no mutable state.

// gpuDetWorkload is one determinism-matrix workload: kernels cover
// streaming stores (phase1Src), a data-dependent loop of global loads
// (loopSrc), and shared-memory traffic with barriers (barrierSrc).
type gpuDetWorkload struct {
	name   string
	src    string
	consts []uint32
}

func gpuDetWorkloads() []gpuDetWorkload {
	return []gpuDetWorkload{
		{"square", phase1Src, []uint32{64, 0x1000, 0x8000}},
		{"loopsum", loopSrc, []uint32{64, 0x10000, 4, 4, 0x30000}},
		{"barshare", barrierSrc, []uint32{64, 0x40000}},
	}
}

func gpuDetSpec(t *testing.T, w gpuDetWorkload, mode rename.Mode) LaunchSpec {
	t.Helper()
	k, err := compiler.Compile(isa.MustParse(w.src), compiler.Options{
		TableBytes: 1024, ResidentWarps: 4, NoFlags: mode != rename.ModeCompiler,
	})
	if err != nil {
		t.Fatal(err)
	}
	return LaunchSpec{
		Kernel: k, GridCTAs: 48, ThreadsPerCTA: 64, ConcCTAs: 2, Consts: w.consts,
	}
}

func gpuResultJSON(t *testing.T, cfg Config, spec LaunchSpec) ([]byte, error) {
	t.Helper()
	res, err := RunGPU(cfg, spec)
	if err != nil {
		return nil, err
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatalf("marshal GPUResult: %v", jerr)
	}
	return b, nil
}

// detMode is one register-file backend of the determinism matrix. set
// applies the backend-specific knobs (sized small enough that the
// wrapper machinery — cache evictions, demoted registers — is actually
// exercised on the matrix kernels).
type detMode struct {
	name string
	mode rename.Mode
	set  func(*Config)
}

// detModes is the full backend axis every determinism/durability
// matrix iterates: the three classic modes plus both wrapper backends.
func detModes() []detMode {
	return []detMode{
		{"baseline", rename.ModeBaseline, nil},
		{"hwonly", rename.ModeHWOnly, nil},
		{"compiler", rename.ModeCompiler, nil},
		{"regcache", rename.ModeRegCache, func(c *Config) { c.RFCacheEntries = 8 }},
		{"smemspill", rename.ModeSMemSpill, func(c *Config) { c.SpillRegs = 2 }},
	}
}

func (m detMode) apply(cfg Config) Config {
	if m.set != nil {
		m.set(&cfg)
	}
	return cfg
}

// TestRunGPUParallelMatchesSequential runs each launch alone, then
// twice at once on two goroutines, and requires the same bytes (or the
// same error) from all three.
func TestRunGPUParallelMatchesSequential(t *testing.T) {
	for _, w := range gpuDetWorkloads() {
		for _, m := range detModes() {
			for _, physRegs := range []int{512, 1024} {
				name := fmt.Sprintf("%s/%s/%d", w.name, m.name, physRegs)
				t.Run(name, func(t *testing.T) {
					spec := gpuDetSpec(t, w, m.mode)
					cfg := m.apply(Config{Mode: m.mode, PhysRegs: physRegs, MaxCycles: 2_000_000})

					ref, refErr := gpuResultJSON(t, cfg, spec)
					var (
						got  [2][]byte
						errs [2]error
						wg   sync.WaitGroup
					)
					for i := range got {
						wg.Add(1)
						go func() {
							defer wg.Done()
							res, err := RunGPU(cfg, spec)
							if err == nil {
								got[i], err = json.Marshal(res)
							}
							errs[i] = err
						}()
					}
					wg.Wait()
					for i := range got {
						switch {
						case refErr != nil || errs[i] != nil:
							// A config that cannot run must fail identically.
							if fmt.Sprint(refErr) != fmt.Sprint(errs[i]) {
								t.Fatalf("run %d: err %v, alone %v", i, errs[i], refErr)
							}
						case !bytes.Equal(ref, got[i]):
							t.Fatalf("concurrent run %d diverges from the lone run (%d vs %d JSON bytes)",
								i, len(got[i]), len(ref))
						}
					}
				})
			}
		}
	}
}

// TestRunGPUWatchdogNamesFirstSM: when several SMs fail in one device
// cycle, the error names the lowest-indexed one. Every SM hits the
// MaxCycles watchdog at the same cycle here, so that is SM 0.
func TestRunGPUWatchdogNamesFirstSM(t *testing.T) {
	w := gpuDetWorkloads()[0]
	spec := gpuDetSpec(t, w, rename.ModeCompiler)
	_, err := RunGPU(Config{Mode: rename.ModeCompiler, MaxCycles: 3}, spec)
	if err == nil {
		t.Fatal("MaxCycles=3 run must fail")
	}
	if !strings.HasPrefix(err.Error(), "sim: SM 0: ") {
		t.Errorf("err = %v, want it to name SM 0", err)
	}
}
