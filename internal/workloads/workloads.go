// Package workloads provides the 16 synthetic kernels standing in for
// the paper's benchmark suite (Table 1: CUDA SDK, Parboil, Rodinia).
// We cannot run the original CUDA binaries, so each generator reproduces
// the *register-lifetime structure* and memory behaviour that drive the
// paper's results, at the Table 1 configuration (threads/CTA, registers/
// kernel, concurrent CTAs/SM):
//
//   - long-lived registers computed early and consumed at the end
//     (Fig. 2's r1),
//   - loop-body registers with many short value lifetimes (Fig. 2's r0),
//   - short-lived pre/post-loop temporaries (Fig. 2's r3),
//   - divergence (BFS, MUM, Reduction), barriers and shared memory
//     (Reduction, ScalarProd), streaming (VectorAdd), heavy arithmetic
//     (BlackScholes, DCT8x8), stencils (HotSpot, LPS), and dependent
//     pointer-chasing loads that make MUM memory-contention bound.
//
// Grids are scaled down (SimCTAs) so a full 16-benchmark sweep runs in
// seconds; the paper's full grid sizes are retained for reporting.
package workloads

import (
	"fmt"
	"sync"

	"regvirt/internal/arch"
	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/sim"
)

// Workload is one benchmark: source assembly plus its Table 1 launch
// configuration.
type Workload struct {
	Name string
	// Source is the kernel assembly.
	Source string
	// GridCTAs / ThreadsPerCTA / PaperRegs / ConcCTAs are the Table 1
	// columns (#CTAs, #Thrds/CTA, #Regs/Kernel, Conc.CTAs/Core).
	GridCTAs      int
	ThreadsPerCTA int
	PaperRegs     int
	ConcCTAs      int
	// SimCTAs is how many CTAs the simulated SM actually runs
	// (min(GridCTAs/16 SMs, 2 x ConcCTAs), at least one).
	SimCTAs int
	// Consts is the kernel's constant bank.
	Consts []uint32
}

// Program parses the kernel source.
func (w *Workload) Program() *isa.Program { return isa.MustParse(w.Source) }

// ResidentWarps is warps/CTA x concurrent CTAs — the renaming-table
// sizing input (§6.2).
func (w *Workload) ResidentWarps() int {
	wpc := (w.ThreadsPerCTA + arch.WarpSize - 1) / arch.WarpSize
	return wpc * w.ConcCTAs
}

// CompileOptions returns the standard compilation options for this
// workload (1 KB renaming table budget).
func (w *Workload) CompileOptions() compiler.Options {
	return compiler.Options{
		TableBytes:    arch.RenameTableBudgetBytes,
		ResidentWarps: w.ResidentWarps(),
	}
}

// Compile compiles the kernel with release metadata.
func (w *Workload) Compile() (*compiler.Kernel, error) {
	return compiler.Compile(w.Program(), w.CompileOptions())
}

// CompileBaseline compiles without metadata (conventional baseline).
func (w *Workload) CompileBaseline() (*compiler.Kernel, error) {
	opts := w.CompileOptions()
	opts.NoFlags = true
	return compiler.Compile(w.Program(), opts)
}

// Spec builds the launch for a compiled kernel.
func (w *Workload) Spec(k *compiler.Kernel) sim.LaunchSpec {
	return sim.LaunchSpec{
		Kernel:        k,
		GridCTAs:      w.SimCTAs * arch.NumSMs,
		ThreadsPerCTA: w.ThreadsPerCTA,
		ConcCTAs:      w.ConcCTAs,
		Consts:        w.Consts,
	}
}

func simCTAs(grid, conc int) int {
	n := grid / arch.NumSMs
	if cap := 2 * conc; n > cap {
		n = cap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// builders constructs the 16 workloads in the paper's Table 1 order.
var builders = []func() *Workload{
	matrixMul, blackScholes, dct8x8, reduction,
	vectorAdd, backProp, bfs, heartwall,
	hotSpot, lud, gaussian, lib,
	lps, nn, mum, scalarProd,
}

// index maps each workload name to its builder. It is built once, on
// first use, so a name check costs a map lookup instead of building
// every workload.
var index = sync.OnceValue(func() map[string]func() *Workload {
	m := make(map[string]func() *Workload, len(builders))
	for _, b := range builders {
		m[b().Name] = b
	}
	return m
})

// All returns the 16 workloads in the paper's Table 1 order.
func All() []*Workload {
	out := make([]*Workload, len(builders))
	for i, b := range builders {
		out[i] = b()
	}
	return out
}

// ByName builds the named workload; it returns an error for unknown
// names.
func ByName(name string) (*Workload, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return index()[name](), nil
}

// CheckName returns ByName's error for an unknown name, and nil for a
// known one, without building any workload.
func CheckName(name string) error {
	if _, ok := index()[name]; !ok {
		return fmt.Errorf("workloads: unknown workload %q", name)
	}
	return nil
}

// Names lists the workload names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}
