package compiler

import (
	"testing"

	"regvirt/internal/arch"
	"regvirt/internal/isa"
	"regvirt/internal/kernelgen"
)

// frontEndAllocBudget bounds the heap allocations of parsing and
// compiling one generated kernel of the benchmark's cold geometry.
const frontEndAllocBudget = 150

// TestFrontEndAllocations guards the kernel front end's allocation
// count: isa.Parse plus Compile of kernelgen kernels at the cold
// benchmark's parameters (8–15 registers, 10 statements, nesting depth
// 2, 16x128 threads at 4 CTAs), with release metadata and without,
// stays within frontEndAllocBudget each. A cold submit pays this once
// per distinct kernel, so a per-block or per-instruction allocation
// creeping back into a pass shows here first.
func TestFrontEndAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for i := int64(0); i < 40; i++ {
		kseed := 1<<20 | i
		src := kernelgen.Generate(kseed, kernelgen.Params{Regs: 8 + int(kseed%8), MaxItems: 10, MaxDepth: 2}).String()
		for _, noFlags := range []bool{false, true} {
			opts := Options{TableBytes: arch.RenameTableBudgetBytes, ResidentWarps: 16, NoFlags: noFlags}
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				var p *isa.Program
				if p, err = isa.Parse(src); err == nil {
					_, err = Compile(p, opts)
				}
			})
			if err != nil {
				t.Fatalf("kernel %#x: %v", kseed, err)
			}
			if allocs > frontEndAllocBudget {
				t.Errorf("kernel %#x (no flags %v): parse + compile made %v allocations, budget %d",
					kseed, noFlags, allocs, frontEndAllocBudget)
			}
		}
	}
}
