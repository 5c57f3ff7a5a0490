package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"regvirt/internal/kernelgen"
	"regvirt/internal/sim"
	"regvirt/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedRow is one simulation whose output the golden pins.
type pinnedRow struct {
	name string
	job  Job
	// every > 0 hashes the gob bytes of the run's first periodic
	// checkpoint (taken at that cycle) instead of the result JSON.
	every uint64
}

// pinnedModes is the backend rotation the pinned rows use: the three
// register-saving backends on the shrunk file, the two classic ones on
// the full file (hwonly deadlocks on several workloads at 512).
var pinnedModes = []struct {
	mode     string
	physregs int
}{{"compiler", 512}, {"regcache", 512}, {"smemspill", 512}, {"baseline", 1024}, {"hwonly", 1024}}

func pinnedRows() []pinnedRow {
	var rows []pinnedRow
	for _, name := range workloads.Names() {
		for _, m := range pinnedModes {
			rows = append(rows, pinnedRow{
				name: fmt.Sprintf("sm/%s/%s@%d", name, m.mode, m.physregs),
				job:  Job{Workload: name, Mode: m.mode, PhysRegs: m.physregs},
			})
		}
	}
	for _, name := range []string{"Gaussian", "Reduction"} {
		for i, m := range pinnedModes {
			rows = append(rows, pinnedRow{
				name: fmt.Sprintf("gpu/%s/%s@%d", name, m.mode, m.physregs),
				job:  Job{Workload: name, Mode: m.mode, PhysRegs: m.physregs, WholeGPU: true, GPUParallel: 1 + i%3},
			})
		}
	}
	rows = append(rows, pinnedRow{
		name: "gpu/Gaussian/compiler@512/profile",
		job:  Job{Workload: "Gaussian", PhysRegs: 512, WholeGPU: true, Profile: true, GPUParallel: 2},
	})
	// Generated kernels at the whole-device geometry of the service
	// benchmark's gpu workload: 16 CTAs (one per SM), backends rotating
	// on the full register file.
	for i := 0; i < 64; i++ {
		seed := int64(1)<<20 | int64(i)
		params := kernelgen.Params{Regs: 8 + int(uint64(seed)%8), MaxItems: 10, MaxDepth: 2}
		mode := pinnedModes[i%len(pinnedModes)].mode
		rows = append(rows, pinnedRow{
			name: fmt.Sprintf("kgen/%d/%s", i, mode),
			job: Job{
				Kernel: kernelgen.Generate(seed, params).String(), Mode: mode,
				WholeGPU: true, GridCTAs: 16, GPUParallel: 1 + i%2,
			},
		})
	}
	rows = append(rows,
		pinnedRow{name: "ckpt/sm/Reduction/compiler@512", every: 3000,
			job: Job{Workload: "Reduction", PhysRegs: 512}},
		pinnedRow{name: "ckpt/gpu/Reduction/regcache@512", every: 1000,
			job: Job{Workload: "Reduction", Mode: "regcache", PhysRegs: 512, WholeGPU: true, GPUParallel: 2}},
	)
	return rows
}

// pinnedDigest runs one row and hashes what it pins.
func pinnedDigest(r pinnedRow) (string, error) {
	if r.every == 0 {
		res, err := Execute(context.Background(), r.job)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(res.JSON())
		return hex.EncodeToString(sum[:]), nil
	}
	var first *sim.Checkpoint
	hooks := runHooks{every: r.every, checkpoint: func(ck *sim.Checkpoint) {
		if first == nil {
			first = ck
		}
	}}
	if _, err := execute(context.Background(), r.job, r.job.Key(), nil, hooks); err != nil {
		return "", err
	}
	if first == nil {
		return "", fmt.Errorf("no checkpoint at cycle %d", r.every)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(first); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// TestResultsPinned pins the simulated output: the SHA-256 of
// Result.JSON() for Table 1 workloads under every backend (single SM
// and whole device, one profiled), generated kernels on the whole
// device, and the gob bytes of one mid-run single-SM and one mid-run
// device checkpoint — so a change meant only to make the simulator
// faster cannot move a number, and checkpoints written by an earlier
// build stay resumable. Regenerate with -update only for a change that
// is meant to alter results.
//
// The race detector's build keeps its own golden: LUD's float kernels
// combine NaNs whose payloads come from synthetic input words, and
// which operand's payload an x86 float instruction propagates depends
// on the operand order the Go compiler emits, which instrumentation
// changes. Each build is deterministic on its own.
func TestResultsPinned(t *testing.T) {
	rows := pinnedRows()
	got := make([]string, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = pinnedDigest(rows[i])
			}
		}()
	}
	for i := range rows {
		next <- i
	}
	close(next)
	wg.Wait()

	var b strings.Builder
	for i, r := range rows {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.name, errs[i])
		}
		fmt.Fprintf(&b, "%s %s\n", r.name, got[i])
	}
	golden := filepath.Join("testdata", "results_pinned.golden")
	if raceEnabled {
		golden = filepath.Join("testdata", "results_pinned.race.golden")
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	if len(want) != len(rows) {
		t.Errorf("golden has %d rows, test runs %d", len(want), len(rows))
	}
	for i, r := range rows {
		if w, ok := want[r.name]; !ok {
			t.Errorf("%s: not in golden", r.name)
		} else if w != got[i] {
			t.Errorf("%s: digest %s, golden %s", r.name, got[i], w)
		}
	}
}
