// Command asmdump assembles a kernel and prints its control-flow graph,
// SIMT liveness, per-register lifetime estimates (the Fig. 3 analysis),
// and the compiled output with pir/pbr release metadata and their 64-bit
// words (§6.2).
//
// Usage:
//
//	asmdump [-table bytes] [-warps n] <kernel.asm>
//	asmdump -workload MatrixMul
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"regvirt/internal/arch"
	"regvirt/internal/cfg"
	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/liveness"
	"regvirt/internal/workloads"
)

func main() {
	var (
		table    = flag.Int("table", arch.RenameTableBudgetBytes, "renaming table budget bytes (0 = unconstrained)")
		warps    = flag.Int("warps", arch.MaxWarpsPerSM, "resident warps (table sizing)")
		workload = flag.String("workload", "", "dump a built-in workload instead of a file")
	)
	flag.Parse()
	if err := run(os.Stdout, *table, *warps, *workload, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "asmdump:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, table, warps int, workload string, args []string) error {
	var p *isa.Program
	switch {
	case workload != "":
		wl, err := workloads.ByName(workload)
		if err != nil {
			return err
		}
		p = wl.Program()
		warps = wl.ResidentWarps()
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		p, err = isa.Parse(string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide a kernel file or -workload")
	}

	fmt.Fprintln(w, "== source ==")
	fmt.Fprint(w, p.String())

	if issues, lerr := compiler.Lint(p); lerr == nil && len(issues) > 0 {
		fmt.Fprintln(w, "\n== lint ==")
		for _, i := range issues {
			fmt.Fprintf(w, "  %v\n", i)
		}
	}

	g, err := cfg.Build(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== control flow ==")
	fmt.Fprint(w, g.String())
	for i, l := range g.Loops {
		fmt.Fprintf(w, "  loop %d: head B%d blocks %v exits %v\n", i, l.Head, l.Blocks, l.ExitBlocks)
	}

	li := liveness.Analyze(g)
	fmt.Fprintln(w, "\n== liveness (SIMT-corrected) ==")
	for _, b := range g.Blocks {
		fmt.Fprintf(w, "  B%d live-in %s live-out %s divergent=%v\n",
			b.ID, li.LiveIn[b.ID], li.LiveOut[b.ID], li.Divergent[b.ID])
	}

	k, err := compiler.Compile(p, compiler.Options{TableBytes: table, ResidentWarps: warps})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== register lifetime estimates (Fig. 3 analysis) ==")
	fmt.Fprintf(w, "  %-5s %6s %12s %10s\n", "reg", "defs", "avg-lifetime", "long-lived")
	for _, st := range k.Stats {
		fmt.Fprintf(w, "  %-5s %6d %12.1f %10v\n", st.Reg, st.Defs, st.AvgLifetime, st.LongLived)
	}
	fmt.Fprintf(w, "\n  exempt under %dB table with %d warps: %d (%v)\n",
		table, warps, k.Exempt, k.ExemptRegs)
	fmt.Fprintf(w, "  unconstrained table: %d bytes\n", k.UnconstrainedTableBytes)

	fmt.Fprintln(w, "\n== compiled with release metadata ==")
	fmt.Fprint(w, k.Prog.String())
	fmt.Fprintln(w, "\n== metadata words ==")
	for _, in := range k.Prog.Instrs {
		if word, err := isa.MetaWord(in); err == nil { // only pir and pbr have one
			fmt.Fprintf(w, "%4d:  %016x  %s\n", in.PC, word, in)
		}
	}
	fmt.Fprintf(w, "\n  %d instructions (+%d pir, +%d pbr; static increase %.1f%%)\n",
		len(k.Prog.Instrs), k.PirCount, k.PbrCount, k.StaticIncrease()*100)
	fmt.Fprintf(w, "  %d release points; avg %.1f regs per pbr\n", k.ReleasePoints, k.AvgPbrRegs)
	fmt.Fprintln(w, "\n  per-instruction release flags (pir bits):")
	for _, in := range k.Prog.Instrs {
		for i := 0; i < in.NSrc; i++ {
			if in.Rel[i] {
				fmt.Fprintf(w, "    pc %3d: release %-4s after %s\n", in.PC, in.Srcs[i].Reg, in)
				break
			}
		}
	}
	return nil
}
