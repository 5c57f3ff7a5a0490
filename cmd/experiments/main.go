// Command experiments regenerates the tables and figures of "GPU
// Register File Virtualization" (MICRO-48, 2015) on the simulator.
//
// Usage:
//
//	experiments [-csv dir] [-j N] <table1|table2|fig1|fig3|fig7|fig9|fig10|fig11a|fig11b|fig12|fig13|fig14|fig15|shrink|sharing|backends|gpu|report|all>
//
// With -csv, each experiment also writes a plot-ready CSV into dir.
// With -j N, independent experiments run concurrently on N workers of
// an internal/jobs pool; outputs are buffered and printed in the
// canonical order, so the bytes are identical to a sequential run.
//
// "gpu" is the whole-device comparison (sim.RunGPU, 16 SMs); it costs
// 16 single-SM runs per workload and is therefore not part of "all".
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"regvirt/internal/experiments"
	"regvirt/internal/isa"
	"regvirt/internal/jobs"
)

var (
	csvDir   = flag.String("csv", "", "directory to write plot-ready CSV files into")
	parallel = flag.Int("j", 1, "worker goroutines for independent experiments")
)

var order = []string{
	"table1", "table2", "fig1", "fig3", "fig7", "fig9",
	"fig10", "fig11a", "fig11b", "fig12", "fig13", "fig14", "fig15",
	"shrink", "sharing", "backends", "report",
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s [-csv dir] [-j N] <%s|gpu|all>\n", os.Args[0], join(order))
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	names := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		names = order
	}
	if err := runAll(os.Stdout, experiments.NewRunner(), names, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runAll renders the named experiments to w in order. With workers > 1
// they execute concurrently on a jobs pool (sharing the runner's
// result cache) while the output stays byte-identical to the
// sequential run: each experiment renders into its own buffer and the
// buffers are flushed in order.
func runAll(w io.Writer, r *experiments.Runner, names []string, workers int) error {
	if workers <= 1 {
		for _, name := range names {
			if err := run(w, r, name); err != nil {
				return err
			}
		}
		return nil
	}
	pool := jobs.NewPool(workers)
	defer pool.Close()
	bufs := make([]bytes.Buffer, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = pool.Exec(context.Background(), func() error {
				return run(&bufs[i], r, name)
			})
		}(i, name)
	}
	wg.Wait()
	for i := range names {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "|"
		}
		out += n
	}
	return out
}

func run(w io.Writer, r *experiments.Runner, which string) error {
	switch which {
	case "table1":
		header(w, "Table 1: workloads")
		rows := experiments.Table1()
		fmt.Fprint(w, experiments.RenderTable1(rows))
		if err := writeCSV(w, "table1", experiments.CSVTable1(rows)); err != nil {
			return err
		}
	case "table2":
		header(w, "Table 2: renaming table and register bank energy (40nm)")
		fmt.Fprint(w, experiments.RenderTable2(experiments.Table2()))
	case "fig1":
		header(w, "Fig. 1: fraction of live registers among compiler-reserved registers")
		apps, err := experiments.Fig1(r, 200)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig1(apps))
		if err := writeCSV(w, "fig1", experiments.CSVFig1(apps)); err != nil {
			return err
		}
	case "fig3":
		header(w, "Fig. 2/3: MatrixMul register lifetimes (warp 0)")
		segs, err := experiments.Fig3([]isa.RegID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig3(segs))
		if err := writeCSV(w, "fig3", experiments.CSVFig3(segs)); err != nil {
			return err
		}
	case "fig7":
		header(w, "Fig. 7: register file power vs size reduction")
		pts := experiments.Fig7()
		fmt.Fprint(w, experiments.RenderFig7(pts))
		if err := writeCSV(w, "fig7", experiments.CSVFig7(pts)); err != nil {
			return err
		}
	case "fig9":
		header(w, "Fig. 9: leakage power fraction vs technology (normalized to 40nm)")
		nodes := experiments.Fig9()
		fmt.Fprint(w, experiments.RenderFig9(nodes))
		if err := writeCSV(w, "fig9", experiments.CSVFig9(nodes)); err != nil {
			return err
		}
	case "fig10":
		header(w, "Fig. 10: register allocation reduction (%)")
		rows, err := experiments.Fig10(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderAppValues(rows, "%", 60))
		if err := writeCSV(w, "fig10", experiments.CSVAppValues(rows, "alloc_reduction_pct")); err != nil {
			return err
		}
	case "fig11a":
		header(w, "Fig. 11a: execution cycle increase with 64KB register file (%)")
		rows, err := experiments.Fig11a(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig11a(rows))
		if err := writeCSV(w, "fig11a", experiments.CSVFig11a(rows)); err != nil {
			return err
		}
	case "fig11b":
		header(w, "Fig. 11b: sensitivity to subarray wakeup latency")
		pts, err := experiments.Fig11b(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig11b(pts))
		if err := writeCSV(w, "fig11b", experiments.CSVFig11b(pts)); err != nil {
			return err
		}
	case "fig12":
		header(w, "Fig. 12: register file energy breakdown (normalized to 128KB RF)")
		rows, err := experiments.Fig12(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig12(rows))
		if err := writeCSV(w, "fig12", experiments.CSVFig12(rows)); err != nil {
			return err
		}
	case "fig13":
		header(w, "Fig. 13: static and dynamic code increase (%)")
		rows, err := experiments.Fig13(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig13(rows))
		if err := writeCSV(w, "fig13", experiments.CSVFig13(rows)); err != nil {
			return err
		}
	case "fig14":
		header(w, "Fig. 14: renaming table size and 1KB-constrained saving")
		rows, err := experiments.Fig14(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig14(rows))
		if err := writeCSV(w, "fig14", experiments.CSVFig14(rows)); err != nil {
			return err
		}
	case "fig15":
		header(w, "Fig. 15: hardware-only renaming [46] normalized to this work")
		rows, err := experiments.Fig15(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig15(rows))
		if err := writeCSV(w, "fig15", experiments.CSVFig15(rows)); err != nil {
			return err
		}
	case "shrink":
		header(w, "GPU-shrink size sweep (§9.2: 30%/40%/50% reductions)")
		pts, err := experiments.ShrinkSweep(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9s %11s %14s %14s\n", "physregs", "reduction", "avg overhead", "max overhead")
		for _, p := range pts {
			fmt.Fprintf(w, "%9d %10.1f%% %13.2f%% %13.2f%%\n",
				p.PhysRegs, p.ReductionPct, p.AvgOverheadPct, p.MaxOverheadPct)
		}
		if err := writeCSV(w, "shrink", experiments.CSVShrinkSweep(pts)); err != nil {
			return err
		}
	case "sharing":
		header(w, "Inter-warp physical register sharing under GPU-shrink (§5)")
		rows, err := experiments.Sharing(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderSharing(rows))
		if err := writeCSV(w, "sharing", experiments.CSVSharing(rows)); err != nil {
			return err
		}
	case "backends":
		header(w, "Register-file backends at 512 physical registers (vs baseline and GPU-shrink)")
		rows, err := experiments.Backends(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderBackends(rows))
		if err := writeCSV(w, "backends", experiments.CSVBackends(rows)); err != nil {
			return err
		}
	case "gpu":
		header(w, "Whole-device (16 SM) vs single-SM under GPU-shrink")
		rows, err := experiments.Device(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12s %13s %10s %9s %12s %12s %10s\n",
			"app", "device cyc", "SM cyc", "slowdown", "instrs", "mem reqs", "reduction")
		for _, row := range rows {
			fmt.Fprintf(w, "%12s %13d %10d %8.2fx %12d %12d %9.1f%%\n",
				row.App, row.DeviceCycles, row.SMCycles, row.Slowdown,
				row.Instrs, row.MemRequests, row.ReductionPct)
		}
		if err := writeCSV(w, "gpu", experiments.CSVDevice(rows)); err != nil {
			return err
		}
	case "report":
		doc, err := experiments.Report(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, doc)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
	fmt.Fprintln(w)
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w, "==", title)
}

// writeCSV emits one experiment's CSV artifact when -csv is set.
func writeCSV(w io.Writer, name, doc string) error {
	if *csvDir == "" {
		return nil
	}
	path := filepath.Join(*csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "(wrote %s)\n", path)
	return nil
}
