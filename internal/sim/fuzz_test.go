package sim

import (
	"fmt"
	"reflect"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/kernelgen"
	"regvirt/internal/rename"
)

// Differential fuzzing: random structured kernels must produce
// bit-identical global-memory output under every register-management
// configuration. Released registers are poisoned and the renaming-table
// invariants are checked throughout, so use-after-release, double
// mapping, and leaked registers all surface as hard failures.
func TestFuzzDifferential(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := kernelgen.Generate(seed, kernelgen.Params{
				Regs:     8 + int(seed%10),
				MaxItems: 10,
				MaxDepth: 2 + int(seed%2),
				Barriers: seed%3 == 0,
			})
			spec := LaunchSpec{
				GridCTAs: 16 * 2, ThreadsPerCTA: 64, ConcCTAs: 3,
				Consts: []uint32{64},
			}
			base, err := compiler.Compile(prog, compiler.Options{NoFlags: true})
			if err != nil {
				t.Fatalf("compile baseline: %v", err)
			}
			spec.Kernel = base
			ref, err := Run(Config{Mode: rename.ModeBaseline}, spec)
			if err != nil {
				t.Fatalf("baseline run: %v\n%s", err, prog)
			}
			if len(ref.Stores) == 0 {
				t.Fatal("baseline stored nothing")
			}

			virt, err := compiler.Compile(prog, compiler.Options{TableBytes: 1024, ResidentWarps: 6})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			configs := []struct {
				name   string
				kernel *compiler.Kernel
				cfg    Config
			}{
				{"hw-only", base, Config{Mode: rename.ModeHWOnly}},
				{"virt", virt, Config{Mode: rename.ModeCompiler}},
				{"virt-shrink-gated", virt, Config{
					Mode: rename.ModeCompiler, PhysRegs: 512,
					PowerGating: true, WakeupLatency: 3,
				}},
				{"virt-tiny-file", virt, Config{Mode: rename.ModeCompiler, PhysRegs: 256}},
			}
			for _, c := range configs {
				cfg := c.cfg
				cfg.PoisonReleased = true
				cfg.SelfCheckEvery = 64
				spec.Kernel = c.kernel
				got, err := Run(cfg, spec)
				if err != nil {
					t.Fatalf("%s: %v\n%s", c.name, err, prog)
				}
				if !reflect.DeepEqual(got.Stores, ref.Stores) {
					t.Fatalf("%s: output differs from baseline\n%s", c.name, prog)
				}
			}
		})
	}
}

// The compiler-spill baseline must also survive the fuzzer.
func TestFuzzSpillDifferential(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(100); seed < 100+seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := kernelgen.Generate(seed, kernelgen.Params{
				Regs: 14, MaxItems: 8, MaxDepth: 2,
			})
			spec := LaunchSpec{
				GridCTAs: 16, ThreadsPerCTA: 32, ConcCTAs: 2,
				Consts: []uint32{32},
			}
			base, err := compiler.Compile(prog, compiler.Options{NoFlags: true})
			if err != nil {
				t.Fatal(err)
			}
			spec.Kernel = base
			ref, err := Run(Config{Mode: rename.ModeBaseline}, spec)
			if err != nil {
				t.Fatalf("baseline: %v\n%s", err, prog)
			}
			sp, err := compiler.SpillTo(prog, 8)
			if err != nil {
				t.Fatalf("SpillTo: %v\n%s", err, prog)
			}
			ks, err := compiler.Compile(sp, compiler.Options{NoFlags: true})
			if err != nil {
				t.Fatal(err)
			}
			spec.Kernel = ks
			got, err := Run(Config{Mode: rename.ModeBaseline}, spec)
			if err != nil {
				t.Fatalf("spilled run: %v\n%s", err, sp)
			}
			if !reflect.DeepEqual(got.Stores, ref.Stores) {
				t.Fatalf("spilled output differs\noriginal:\n%s\nspilled:\n%s", prog, sp)
			}
		})
	}
}
