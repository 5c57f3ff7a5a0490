package experiments

import (
	"fmt"

	"regvirt/internal/workloads"
)

// DeviceRow compares one workload at device scope (sim.RunGPU, all 16
// SMs with shared global memory, a shared CTA dispatcher and a common
// DRAM bandwidth budget) against the single-SM evaluation path the
// figures use. SMCycles is the single-SM run of the same configuration
// (one SM's share of the grid); the slowdown column is the fidelity
// cost the shared memory system adds, which the single-SM path cannot
// see.
type DeviceRow struct {
	App          string
	DeviceCycles uint64
	SMCycles     uint64
	Slowdown     float64 // DeviceCycles / SMCycles
	Instrs       uint64
	MemRequests  uint64
	ReductionPct float64 // device-scope Fig. 10 metric
}

// deviceApps is the device-experiment subset: a whole-GPU run costs
// 16 single-SM runs, so the sweep uses three memory-diverse workloads
// rather than the full Table 1 suite.
var deviceApps = []string{"VectorAdd", "MatrixMul", "Reduction"}

// CSVDevice renders Device rows as a plot-ready CSV document.
func CSVDevice(rows []DeviceRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.App, fmt.Sprint(r.DeviceCycles), fmt.Sprint(r.SMCycles),
			f(r.Slowdown), fmt.Sprint(r.Instrs), fmt.Sprint(r.MemRequests), f(r.ReductionPct)})
	}
	return csvDoc([]string{"app", "device_cycles", "sm_cycles", "slowdown",
		"instrs", "mem_requests", "alloc_reduction_pct"}, out)
}

// Device runs the whole-device comparison under GPU-shrink (512
// registers, the configuration where register management couples with
// occupancy and therefore with the shared memory system).
func Device(r *Runner) ([]DeviceRow, error) {
	var out []DeviceRow
	for _, name := range deviceApps {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := r.RunGPU(w, KernelVirt, shrinkCfg())
		if err != nil {
			return nil, fmt.Errorf("experiments: device %s: %w", name, err)
		}
		solo, err := r.Run(w, KernelVirt, shrinkCfg())
		if err != nil {
			return nil, err
		}
		row := DeviceRow{
			App:          name,
			DeviceCycles: g.Cycles,
			SMCycles:     solo.Cycles,
			Instrs:       g.Instrs,
			ReductionPct: g.AllocationReduction() * 100,
		}
		for _, res := range g.PerSM {
			row.MemRequests += res.MemRequests
		}
		if solo.Cycles > 0 {
			row.Slowdown = float64(g.Cycles) / float64(solo.Cycles)
		}
		out = append(out, row)
	}
	return out, nil
}
