package regvirt

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§9). Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFig*/BenchmarkTable* executes the full experiment once
// per iteration and reports the headline metric as a custom unit, so a
// bench run doubles as a results summary. The BenchmarkAblation* benches
// cover the design decisions called out in DESIGN.md §5.

import (
	"runtime"
	"testing"

	"regvirt/internal/experiments"
	"regvirt/internal/isa"
	"regvirt/internal/throttle"
	"regvirt/internal/workloads"
)

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 16 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFig1LiveRegisters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		apps, err := experiments.Fig1(r, 100)
		if err != nil {
			b.Fatal(err)
		}
		// Report the average live fraction across the six panels.
		sum, n := 0.0, 0
		for _, a := range apps {
			for _, s := range a.Samples {
				if s.AllocatedRegs > 0 {
					sum += float64(s.LiveRegs) / float64(s.AllocatedRegs)
					n++
				}
			}
		}
		b.ReportMetric(sum/float64(n)*100, "%live")
	}
}

func BenchmarkFig3Lifetimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		segs, err := experiments.Fig3([]isa.RegID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(segs)), "lifetimes")
	}
}

func BenchmarkFig7PowerCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig7()
		b.ReportMetric(pts[len(pts)-1].TotalPct, "%power@50")
	}
}

func BenchmarkFig9TechNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nodes := experiments.Fig9()
		b.ReportMetric(nodes[len(nodes)-1].Leakage, "lkg@10nmF")
	}
}

func BenchmarkFig10AllocationReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig10(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Value, "%avg-reduction")
	}
}

func BenchmarkFig11aGPUShrink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig11a(r)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.GPUShrinkPct, "%shrink-overhead")
		b.ReportMetric(avg.CompilerSpill, "%spill-overhead")
	}
}

func BenchmarkFig11bWakeupLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		pts, err := experiments.Fig11b(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((pts[len(pts)-1].NormCycles-1)*100, "%overhead@10cyc")
	}
}

func BenchmarkFig12EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig12(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.App == "AVG" && row.Config == experiments.Cfg64PG {
				b.ReportMetric((1-row.Total())*100, "%energy-saved")
			}
		}
	}
}

func BenchmarkFig13CodeIncrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig13(r)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.StaticPct, "%static")
		b.ReportMetric(avg.DynamicPct[0], "%dyn-0")
		b.ReportMetric(avg.DynamicPct[10], "%dyn-10")
	}
}

func BenchmarkFig14TableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig14(r)
		if err != nil {
			b.Fatal(err)
		}
		exceed := 0
		for _, row := range rows {
			if row.ExemptRegs > 0 {
				exceed++
			}
		}
		b.ReportMetric(float64(exceed), "apps-over-1KB")
	}
}

func BenchmarkFig15HWOnlyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		rows, err := experiments.Fig15(r)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.AllocReductionRatio, "hw/ours-alloc")
		b.ReportMetric(avg.StaticPowerRatio, "hw/ours-static")
	}
}

// Per-workload simulation throughput benches under the virtualized
// configuration: besides ns/op and allocs/op, the cost per simulated
// cycle (ns/simcycle, allocs/simcycle) and the cycles one run
// simulates (simcycles).

func BenchmarkSim(b *testing.B) {
	for _, w := range Workloads() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			k, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			measureSim(b, func() uint64 {
				res, err := Run(Config{Mode: ModeCompiler}, w.Spec(k))
				if err != nil {
					b.Fatal(err)
				}
				return res.Cycles
			})
		})
	}
}

// simCost is what measureSim reports for one benchmark run.
type simCost struct {
	nsPerOp, allocsPerOp, nsPerCycle float64
}

// measureSim runs b.N iterations of run, which returns the cycles it
// simulated, and reports allocs/op plus the cost per simulated cycle.
func measureSim(b *testing.B, run func() uint64) simCost {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	ns := float64(b.Elapsed().Nanoseconds())
	mallocs := float64(after.Mallocs - before.Mallocs)
	c := float64(max(cycles, 1))
	b.ReportMetric(ns/c, "ns/simcycle")
	b.ReportMetric(mallocs/c, "allocs/simcycle")
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles")
	return simCost{nsPerOp: ns / float64(b.N), allocsPerOp: mallocs / float64(b.N), nsPerCycle: ns / c}
}

// BenchmarkShrinkSweep runs the §9.2 GPU-shrink 30%/40%/50% sweep.
func BenchmarkShrinkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		pts, err := experiments.ShrinkSweep(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].AvgOverheadPct, "%overhead@50")
	}
}

// Ablations over the design decisions in DESIGN.md §5.

// BenchmarkAblationThrottlePolicy compares the paper's worst-case-balance
// throttle against the reservation refinement on the most
// register-pressured workloads under GPU-shrink.
func BenchmarkAblationThrottlePolicy(b *testing.B) {
	apps := []string{"Heartwall", "ScalarProd", "MUM"}
	for _, pol := range []struct {
		name string
		p    throttle.Policy
	}{{"reservation", throttle.PolicyReservation}, {"worst-case", throttle.PolicyWorstCase}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, name := range apps {
					w, err := workloads.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					k, err := w.Compile()
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(Config{Mode: ModeCompiler, PhysRegs: 512, ThrottlePolicy: pol.p}, w.Spec(k))
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles
				}
			}
			b.ReportMetric(float64(total), "simcycles")
		})
	}
}

// BenchmarkAblationAllocPolicy compares subarray-first allocation (§8.2)
// against lowest-index allocation by the static energy left on the table.
func BenchmarkAblationAllocPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    AllocPolicy
	}{{"subarray-first", SubarrayFirst}, {"lowest-index", LowestIndex}, {"spread", Spread}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				sum, n := 0.0, 0
				for _, w := range Workloads() {
					k, err := w.Compile()
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(Config{
						Mode: ModeCompiler, PowerGating: true, WakeupLatency: 1, AllocPolicy: pol.p,
					}, w.Spec(k))
					if err != nil {
						b.Fatal(err)
					}
					sum += float64(res.RF.AwakeSubarrayCyc) / float64(res.RF.TotalSubarrayCyc)
					n++
				}
				frac = sum / float64(n)
			}
			b.ReportMetric(frac*100, "%awake-subarrays")
		})
	}
}

// BenchmarkAblationRenameLatency quantifies the paper's conservative
// +1-cycle renaming-stage assumption against the pipelined default.
func BenchmarkAblationRenameLatency(b *testing.B) {
	for _, lat := range []int{0, 1} {
		lat := lat
		b.Run(map[int]string{0: "pipelined", 1: "plus-1-cycle"}[lat], func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, w := range Workloads() {
					k, err := w.Compile()
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(Config{Mode: ModeCompiler, RenameLatency: lat}, w.Spec(k))
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles
				}
			}
			b.ReportMetric(float64(total), "simcycles")
		})
	}
}

// BenchmarkAblationScheduler compares loose round-robin against
// greedy-then-oldest warp selection across the suite.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, sp := range []struct {
		name string
		p    SchedPolicy
	}{{"lrr", SchedLRR}, {"gto", SchedGTO}} {
		sp := sp
		b.Run(sp.name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, w := range Workloads() {
					k, err := w.Compile()
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(Config{Mode: ModeCompiler, Scheduler: sp.p}, w.Spec(k))
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles
				}
			}
			b.ReportMetric(float64(total), "simcycles")
		})
	}
}

// BenchmarkAblationFlagCache sweeps the release-flag-cache size beyond
// Fig. 13's points to show where locality saturates.
func BenchmarkAblationFlagCache(b *testing.B) {
	w, err := WorkloadByName("MatrixMul")
	if err != nil {
		b.Fatal(err)
	}
	k, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{-1, 2, 10, 32} {
		entries := entries
		name := map[int]string{-1: "none", 2: "2", 10: "10", 32: "32"}[entries]
		b.Run(name, func(b *testing.B) {
			var inc float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Mode: ModeCompiler, FlagCacheEntries: entries}, w.Spec(k))
				if err != nil {
					b.Fatal(err)
				}
				inc = res.DynamicIncrease() * 100
			}
			b.ReportMetric(inc, "%dyn-increase")
		})
	}
}
