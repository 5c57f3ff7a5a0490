// Command regvsim runs one workload (or a kernel assembly file) on the
// simulated SM under a chosen register-management configuration and
// prints the timing, register and energy statistics.
//
// Examples:
//
//	regvsim -workload MatrixMul
//	regvsim -workload MUM -mode compiler -physregs 512 -gating
//	regvsim -kernel my.asm -ctas 16 -threads 128 -conc 4 -mode baseline
//	regvsim -workload BFS -json        # machine-readable (same JSON as regvd)
//	regvsim -workload MatrixMul -gpu   # whole 16-SM device
//	regvsim -workload MUM -remote http://127.0.0.1:8077   # run on a regvd service
//
// The flags are packed into one jobs.Job — the same spec a POST to
// regvd carries — and that job either runs in process (jobs.Execute)
// or, with -remote, is submitted to a regvd daemon through the
// retrying client (REGVD_RETRY_* environment tunes its backoff;
// overload 429s and contained panics are retried, and jobs are
// content-addressed, so a re-run of the same configuration is a cache
// hit). Either way the same *jobs.Result comes back, so -json prints
// the same bytes on both paths; -remote implies -json.
//
// Flags map onto job fields one to one (README "Job fields"), with two
// exceptions. -table 0 means "unconstrained" and is sent as
// table_bytes -1, because the job API reads a zero table_bytes as the
// default 1 KB budget. -wakeup must be at least 1: the job API reads a
// zero wakeup as the default 1-cycle latency, so a 0 here would
// silently run something other than what was asked.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"regvirt/internal/arch"
	"regvirt/internal/jobs"
	"regvirt/internal/jobs/client"
	"regvirt/internal/obs"
	"regvirt/internal/power"
	"regvirt/internal/rename"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

// options is the parsed command line.
type options struct {
	workload, kernel    string
	ctas, threads, conc int
	mode                string
	physRegs            int
	gating              bool
	wakeup, flagCache   int
	table               int
	rfCache             int
	rfCacheWT           bool
	spillRegs           int
	gpu                 bool
	json                bool
	remote              string
	timeout             time.Duration
	profile             bool
	profTrace           string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "built-in workload name (see -list)")
	list := flag.Bool("list", false, "list built-in workloads")
	flag.StringVar(&o.kernel, "kernel", "", fmt.Sprintf("kernel assembly file (alternative to -workload; at most %d instructions)", jobs.MaxKernelInstrs))
	flag.IntVar(&o.ctas, "ctas", 16, "grid CTAs (with -kernel)")
	flag.IntVar(&o.threads, "threads", 128, "threads per CTA (with -kernel)")
	flag.IntVar(&o.conc, "conc", 4, "concurrent CTAs per SM (with -kernel)")
	flag.StringVar(&o.mode, "mode", "compiler", "register-file backend: "+strings.Join(rename.ModeNames(), "|"))
	flag.IntVar(&o.physRegs, "physregs", arch.NumPhysRegs, fmt.Sprintf("physical registers (1024 baseline, 512 GPU-shrink; a multiple of 16, at most %d)", sim.MaxPhysRegs))
	flag.BoolVar(&o.gating, "gating", false, "enable subarray power gating")
	flag.IntVar(&o.wakeup, "wakeup", 1, "subarray wakeup latency in cycles (at least 1; job field wakeup)")
	flag.IntVar(&o.flagCache, "flagcache", arch.FlagCacheEntries, "release flag cache entries (-1 disables)")
	flag.IntVar(&o.table, "table", arch.RenameTableBudgetBytes, "renaming table budget in bytes (0 or negative = unconstrained, sent as table_bytes -1)")
	flag.IntVar(&o.rfCache, "rfcache", 0, "with -mode regcache: register cache lines (0 = arch default)")
	flag.BoolVar(&o.rfCacheWT, "rfcache-wt", false, "with -mode regcache: write-through instead of write-back")
	flag.IntVar(&o.spillRegs, "spill-regs", 0, "with -mode smemspill: registers demoted to shared memory (0 = auto-fit)")
	flag.BoolVar(&o.gpu, "gpu", false, "simulate all 16 SMs (whole grid) instead of one SM's share")
	flag.BoolVar(&o.json, "json", false, "emit the machine-readable result JSON the regvd service returns")
	flag.StringVar(&o.remote, "remote", "", "regvd base URL: run the job on the service instead of in process (implies -json)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Minute, "with -remote: overall deadline for the job including retries")
	flag.BoolVar(&o.profile, "profile", false, "attribute every simulated cycle to a pipeline phase (issue/operand/memory/hazard/commit/idle); results stay byte-identical")
	flag.StringVar(&o.profTrace, "profile-trace", "", "with -profile: write the warp-state timeline to this file as Chrome trace_event JSON (chrome://tracing, Perfetto)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}
	if o.profTrace != "" && !o.profile {
		fmt.Fprintln(os.Stderr, "regvsim: -profile-trace requires -profile")
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "regvsim:", err)
		os.Exit(1)
	}
}

// job packs the command line into the job both paths run.
func (o options) job() (jobs.Job, error) {
	if o.wakeup < 1 {
		return jobs.Job{}, fmt.Errorf("-wakeup %d: the latency must be at least 1 cycle", o.wakeup)
	}
	table := o.table
	if table <= 0 {
		table = -1 // the job API's "unconstrained"; its 0 is the 1 KB default
	}
	job := jobs.Job{
		Workload:            o.workload,
		Mode:                o.mode,
		PhysRegs:            o.physRegs,
		PowerGating:         o.gating,
		WakeupLatency:       o.wakeup,
		FlagCacheEntries:    o.flagCache,
		TableBytes:          table,
		RFCacheEntries:      o.rfCache,
		RFCacheWriteThrough: o.rfCacheWT,
		SpillRegs:           o.spillRegs,
		WholeGPU:            o.gpu,
		Profile:             o.profile,
	}
	if o.kernel != "" {
		src, err := os.ReadFile(o.kernel)
		if err != nil {
			return jobs.Job{}, err
		}
		job.Kernel = string(src)
		job.GridCTAs, job.ThreadsPerCTA, job.ConcCTAs = o.ctas, o.threads, o.conc
	}
	return job, job.Validate()
}

// run executes the job in process or on the -remote service, writes
// the -profile-trace file if asked, and prints the result to w.
func run(w io.Writer, o options) error {
	job, err := o.job()
	if err != nil {
		return err
	}
	var res *jobs.Result
	if o.remote != "" {
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		res, err = client.New(o.remote, client.WithPolicy(client.PolicyFromEnv())).Submit(ctx, job)
	} else {
		res, err = jobs.Execute(context.Background(), job)
	}
	if err != nil {
		return err
	}
	if o.profTrace != "" {
		if err := writeProfileTrace(o.profTrace, res.Profile); err != nil {
			return err
		}
	}
	if o.json || o.remote != "" {
		_, err := w.Write(res.JSON())
		return err
	}
	printReport(w, res, o.profTrace)
	return nil
}

// printReport renders a result as the human-readable report. For
// whole-GPU results the device line comes first and the per-SM lines
// describe the busiest SM, as the result's scalar fields do.
func printReport(w io.Writer, r *jobs.Result, profTrace string) {
	if g := r.GPU; g != nil {
		fmt.Fprintf(w, "whole GPU        %d SMs, %d device cycles, %d instructions, reduction %.1f%%\n",
			g.SMs, g.DeviceCycles, g.TotalInstrs, g.AllocationReductionPct)
	}
	c := r.Config
	fmt.Fprintf(w, "kernel           %s (%d architected regs, %d exempt)\n", r.Kernel, r.ArchRegs, r.ExemptRegs)
	fmt.Fprintf(w, "config           mode=%s physregs=%d gating=%v wakeup=%d flagcache=%d\n",
		c.Mode, c.PhysRegs, c.PowerGating, c.WakeupLatency, c.FlagCacheEntries)
	fmt.Fprintf(w, "cycles           %d\n", r.Cycles)
	fmt.Fprintf(w, "instructions     %d (IPC %.3f, occupancy %.1f warps)\n", r.Instrs, r.IPC, r.AvgResidentWarps)
	fmt.Fprintf(w, "memory requests  %d\n", r.MemRequests)
	fmt.Fprintf(w, "peak live regs   %d / %d allocated (reduction %.1f%%)\n",
		r.PeakLiveRegs, r.CompilerAllocatedRegs, r.AllocationReductionPct)
	fmt.Fprintf(w, "metadata         %d pir + %d pbr decoded (dynamic increase %.2f%%)\n",
		r.DecodedPirs, r.DecodedPbrs, r.DynamicIncreasePct)
	fmt.Fprintf(w, "flag cache       %.1f%% hit rate (%d probes)\n", r.FlagHitRatePct, r.FlagProbes)
	fmt.Fprintf(w, "throttling       %d decisions, %d warps blocked, %d spills\n", r.Throttles, r.WarpsBlocked, r.Spills)
	fmt.Fprintf(w, "subarrays awake  %.1f%%\n", r.SubarraysAwakePct)
	fmt.Fprintf(w, "stall attempts   hazard=%d throttle=%d bank=%d memport=%d\n",
		r.Stalls.Hazard, r.Stalls.Throttle, r.Stalls.Bank, r.Stalls.MemPort)
	fmt.Fprintf(w, "branches         %d divergent / %d uniform (max SIMT depth %d)\n",
		r.DivergentBranches, r.UniformBranches, r.MaxStackDepth)
	e := r.Energy
	fmt.Fprintf(w, "energy           %s\n", power.Energy{
		DynamicPJ: e.DynamicPJ, StaticPJ: e.StaticPJ, RenameTablePJ: e.RenameTablePJ, FlagInstrPJ: e.FlagInstrPJ,
	})
	if p := r.Profile; p != nil {
		printProfile(w, p)
		if profTrace != "" {
			fmt.Fprintf(w, "profile trace    %s (load in chrome://tracing or Perfetto)\n", profTrace)
		}
	}
}

// printProfile renders the cycle attribution as a phase breakdown.
// The six classes partition every simulated cycle, so the percentages
// sum to 100.
func printProfile(w io.Writer, p *jobs.ResultProfile) {
	total := p.IssueCycles + p.OperandStallCycles + p.MemStallCycles +
		p.HazardStallCycles + p.CommitStallCycles + p.IdleCycles
	if total == 0 {
		return
	}
	pct := func(v uint64) float64 { return float64(v) / float64(total) * 100 }
	fmt.Fprintf(w, "cycle breakdown  issue %.1f%% | operand %.1f%% | memory %.1f%% | hazard %.1f%% | commit %.1f%% | idle %.1f%%\n",
		pct(p.IssueCycles), pct(p.OperandStallCycles), pct(p.MemStallCycles),
		pct(p.HazardStallCycles), pct(p.CommitStallCycles), pct(p.IdleCycles))
	if p.SamplesDropped > 0 {
		fmt.Fprintf(w, "profile samples  %d kept, %d dropped past the cap\n", len(p.Timeline), p.SamplesDropped)
	}
}

// writeProfileTrace exports the warp-state timeline as Chrome
// trace_event JSON: one thread row per warp slot, one complete event
// per contiguous run of the same state, timestamps in simulated cycles
// (rendered as microseconds — the units are cycles, not wall time).
// Each event's "issued" argument is the slot's issued-instruction
// count from the result (for whole-GPU results, summed over the SMs;
// the timeline itself is the busiest SM's).
func writeProfileTrace(path string, p *jobs.ResultProfile) error {
	if p == nil || len(p.Timeline) == 0 {
		return errors.New("profile has no timeline samples to export")
	}
	samples := p.Timeline
	slots := len(samples[0].States)
	events := []obs.ChromeEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "warp timeline (ts = cycles)"},
	}}
	for slot := 0; slot < slots; slot++ {
		var issued uint64 // WarpIssued drops trailing idle slots
		if slot < len(p.WarpIssued) {
			issued = p.WarpIssued[slot]
		}
		runStart := 0
		for i := 1; i <= len(samples); i++ {
			if i < len(samples) && samples[i].States[slot] == samples[runStart].States[slot] {
				continue
			}
			if state := samples[runStart].States[slot]; state != sim.ProfileAbsent {
				start := samples[runStart].Cycle
				end := samples[len(samples)-1].Cycle + 1
				if i < len(samples) {
					end = samples[i].Cycle
				}
				events = append(events, obs.ChromeEvent{
					Name: sim.ProfileStateName(state),
					Cat:  "warp",
					Ph:   "X",
					TS:   float64(start),
					Dur:  float64(end - start),
					PID:  1,
					TID:  slot,
					Args: map[string]any{"slot": slot, "issued": issued},
				})
			}
			runStart = i
		}
	}
	data, err := obs.EncodeChrome(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
