package sim

import (
	"fmt"
	"reflect"
	"testing"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/emu"
	"regvirt/internal/kernelgen"
	"regvirt/internal/rename"
)

// And on random kernels, including the compiled (metadata-carrying)
// form: emu skips pir/pbr, sim processes them; outputs must agree.
func TestSimMatchesEmulatorOnFuzzKernels(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(500); seed < 500+seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := kernelgen.Generate(seed, kernelgen.Params{
				Regs: 10 + int(seed%8), MaxItems: 10, MaxDepth: 2, Barriers: seed%2 == 0,
			})
			virt, err := compiler.Compile(prog, compiler.Options{TableBytes: 1024, ResidentWarps: 8})
			if err != nil {
				t.Fatal(err)
			}
			spec := LaunchSpec{
				GridCTAs: arch.NumSMs * 3, ThreadsPerCTA: 96, ConcCTAs: 3,
				Consts: []uint32{96},
			}
			spec.Kernel = virt
			simRes, err := Run(Config{Mode: rename.ModeCompiler, PhysRegs: 512, PoisonReleased: true}, spec)
			if err != nil {
				t.Fatalf("sim: %v\n%s", err, virt.Prog)
			}
			emuRes, err := emu.Run(virt.Prog, emu.GridSpec{
				CTAs: 3, ThreadsPerCTA: 96, Consts: []uint32{96},
			})
			if err != nil {
				t.Fatalf("emu: %v\n%s", err, virt.Prog)
			}
			if !reflect.DeepEqual(simRes.Stores, emuRes.Stores) {
				t.Fatalf("sim and emu disagree\n%s", virt.Prog)
			}
		})
	}
}

// TestPbrSiblingRuleMatchesEmulator runs two generated kernels at the
// service benchmark's cold geometry (kernelgen Regs 8+seed%8, MaxItems
// 10, MaxDepth 2; one SM's share of 16 CTAs of 128 threads, 4 resident)
// in compiler mode. In each, the taken side of an outer branch reaches
// an inner join while the fall-through lanes still wait to run, so a
// pbr there must not free registers the fall-through path reads (the
// sibling rule of the paper's Fig. 4(b)/(c)). Before pbr sets obeyed
// it, 34 of 1,324 and 18 of 1,728 stored words read a freed register
// as zero.
func TestPbrSiblingRuleMatchesEmulator(t *testing.T) {
	for _, seed := range []int64{7<<20 | 733, 7<<20 | 7} {
		prog := kernelgen.Generate(seed, kernelgen.Params{Regs: 8 + int(seed%8), MaxItems: 10, MaxDepth: 2})
		k, err := compiler.Compile(prog, compiler.Options{TableBytes: arch.RenameTableBudgetBytes, ResidentWarps: 16})
		if err != nil {
			t.Fatal(err)
		}
		want, err := emu.Run(k.Prog, emu.GridSpec{CTAs: 1, ThreadsPerCTA: 128})
		if err != nil {
			t.Fatal(err)
		}
		for _, physRegs := range []int{512, 1024} {
			t.Run(fmt.Sprintf("%d/%d", seed, physRegs), func(t *testing.T) {
				got, err := Run(Config{Mode: rename.ModeCompiler, PhysRegs: physRegs},
					LaunchSpec{Kernel: k, GridCTAs: 16, ThreadsPerCTA: 128, ConcCTAs: 4})
				if err != nil {
					t.Fatal(err)
				}
				differ := 0
				for a, v := range want.Stores {
					if got.Stores[a] != v {
						differ++
					}
				}
				if differ > 0 || len(got.Stores) != len(want.Stores) {
					t.Errorf("%d of %d stored words differ from the emulator (%d stored)\n%s",
						differ, len(want.Stores), len(got.Stores), k.Prog)
				}
			})
		}
	}
}
