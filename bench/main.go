// Command bench is the end-to-end and per-layer benchmark of the regvd
// cluster and the simulator it serves. Each run boots an in-process
// cluster wired the way cmd/regvd wires its defaults — three shards on
// loopback TCP, each with a durable store, Workers = NumCPU,
// -checkpoint-every 100000 and a tracer, each shipping its journal to
// the next shard's standby, behind one cluster.Router — and drives one
// workload through internal/jobs/client with nproc closed-loop callers.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                        # every workload, untraced then traced
//	bash bench/run.sh -compare dirA dirB     # two result sets, judged by BENCHMARK.json
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced run (see README.md). The last line of standard
// output is the JSON summary {"correct", "attempted", "failed",
// "metrics"}; the full record of the run, with the host's nproc,
// GOMAXPROCS and Go version, goes to a result file under --out.
// A failed request or a reply that differs from an in-process
// re-execution makes the run exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// buildDir holds everything runs write, relative to the working
// directory (the repository root).
const buildDir = ".bench_build"

// runConfig is one run.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	limit    int    // caps the timed sequence when positive (self-test)
	sizes    sizes  // set-up sizes
	tmp      string // parent of the run's data dirs
}

// backstop caps a timed phase at twice --seconds. A phase sized for
// --seconds only reaches it on a host or build much slower than the
// baseline; the run then reports what it measured, and its result file
// says the sequence was cut.
func (cfg runConfig) backstop() time.Duration { return 2 * time.Duration(cfg.seconds) * time.Second }

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome: its metrics in print order, the counts
// behind them, and the oracle's verdict.
type report struct {
	metrics    []metric
	wall       []metric // wall-clock end-to-end numbers: printed and recorded, not bounded
	attempted  int
	failed     int
	checked    int
	mismatched int
	info       map[string]any // request counts and the like, for the result file
	chrome     []byte         // traced runs: one router trace, stitched across shards
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// correct reports whether the run measured anything, lost no request,
// matched the oracle on every checked reply, and produced a finite
// value for every metric.
func (r *report) correct() bool {
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return false
		}
	}
	return r.attempted > 0 && r.failed == 0 && r.mismatched == 0
}

// run executes one configured run.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	// The timed sequence has a fixed length per second of --seconds; the
	// traced run sends one untimed request ahead of its sequence.
	n := cfg.seconds * perSecond[cfg.workload]
	if cfg.trace {
		n = cfg.seconds*traceRate[cfg.workload].upper + 1
	}
	if cfg.limit > 0 {
		n = min(n, cfg.limit)
	}
	in, err := makeInputs(cfg.workload, cfg.seed, n, cfg.sizes)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runLayers(ctx, cfg, in)
	}
	return runE2E(ctx, cfg, in)
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold, hits, mixed or gpu (empty = every workload, each in its own process, untraced then traced)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "sizes the timed phase's fixed request sequence, which takes about 70% of it on the baseline host; twice it caps the phase")
	trace := fs.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	out := fs.String("out", filepath.Join(buildDir, "results"), "directory the result files are written to")
	compare := fs.Bool("compare", false, "compare the result files of two directories: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result directories")
			return 2
		}
		if err := compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	case *workload == "":
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}

	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, tmp: tmp}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(120+2*cfg.seconds)*time.Second)
	defer cancel()
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeResult(*out, cfg, r, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !r.correct() {
		fmt.Fprintln(stderr, "bench: run failed its checks (see the result file)")
		return 1
	}
	return 0
}

// runAll runs every workload, untraced then traced, each in a fresh
// process so no run inherits an earlier cluster's heap.
func runAll(seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace, "--out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s trace=%s: %v\n", w, trace, err)
				status = 1
			}
		}
	}
	return status
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the full record of one run, read back by -compare.
type resultFile struct {
	Workload          string                 `json:"workload"`
	Seed              int64                  `json:"seed"`
	Seconds           int                    `json:"seconds"`
	Trace             bool                   `json:"trace"`
	NProc             int                    `json:"nproc"`
	GOMAXPROCS        int                    `json:"gomaxprocs"`
	GoVersion         string                 `json:"go_version"`
	Correct           bool                   `json:"correct"`
	Attempted         int                    `json:"attempted"`
	Failed            int                    `json:"failed"`
	ErrorRatio        float64                `json:"error_ratio"`
	ResultsChecked    int                    `json:"results_checked"`
	ResultsMismatched int                    `json:"results_mismatched"`
	Requests          map[string]any         `json:"requests"`
	Metrics           map[string]metricValue `json:"metrics"`
	WallClock         map[string]metricValue `json:"wall_clock,omitempty"`
}

// values maps metrics by name for JSON; JSON has no NaN, and a NaN
// metric has already failed the run (report.correct).
func values(ms []metric) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// writeResult prints the run's metrics, writes its result file (and
// its Chrome trace, if any) under dir, and prints the summary line.
func writeResult(dir string, cfg runConfig, r *report, stdout io.Writer) error {
	ok := r.correct()
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.wall {
		fmt.Fprintf(stdout, "%-28s %16.6f %s (wall clock, not bounded)\n", m.name, m.value, m.unit)
	}
	metrics := values(r.metrics)
	errRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(stdout, "%-28s %16d\n%-28s %16d\n%-28s %16g ratio\n%-28s %16d\n%-28s %16d\n",
		"attempted", r.attempted, "failed", r.failed, "error_ratio", errRatio,
		"results_checked", r.checked, "results_mismatched", r.mismatched)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-trace%d-seed%d-%d", cfg.workload, trace, cfg.seed, os.Getpid()))
	rec, err := json.MarshalIndent(resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Correct: ok, Attempted: r.attempted, Failed: r.failed, ErrorRatio: errRatio,
		ResultsChecked: r.checked, ResultsMismatched: r.mismatched,
		Requests: r.info, Metrics: metrics, WallClock: values(r.wall),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".result.json", append(rec, '\n'), 0o644); err != nil {
		return err
	}
	if r.chrome != nil {
		if err := os.WriteFile(base+".trace.json", r.chrome, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summary{Correct: ok, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
