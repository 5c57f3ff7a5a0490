package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"regvirt/internal/arch"
	"regvirt/internal/jobs"
	"regvirt/internal/rename"
)

// defaults mirrors the flag defaults.
func defaults(workload string) options {
	return options{
		workload: workload, ctas: 16, threads: 128, conc: 4, mode: "compiler",
		physRegs: arch.NumPhysRegs, wakeup: 1, flagCache: arch.FlagCacheEntries,
		table: arch.RenameTableBudgetBytes, timeout: time.Minute,
	}
}

func runString(t *testing.T, o options) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(&buf, o)
	return buf.String(), err
}

func TestRunWorkload(t *testing.T) {
	for _, mode := range rename.ModeNames() {
		o := defaults("VectorAdd")
		o.mode, o.gating = mode, true
		if _, err := runString(t, o); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunBackendKnobs(t *testing.T) {
	o := defaults("VectorAdd")
	o.mode, o.physRegs, o.rfCache, o.rfCacheWT = "regcache", 512, 16, true
	if _, err := runString(t, o); err != nil {
		t.Errorf("regcache with knobs: %v", err)
	}
	o = defaults("VectorAdd")
	o.mode, o.physRegs, o.spillRegs = "smemspill", 512, 2
	if _, err := runString(t, o); err != nil {
		t.Errorf("smemspill with knobs: %v", err)
	}
	// Backend knobs outside their backend are refused, as the service
	// refuses them.
	o = defaults("VectorAdd")
	o.rfCache = 16
	if _, err := runString(t, o); err == nil {
		t.Error("-rfcache accepted outside -mode regcache")
	}
}

func TestRunWholeGPU(t *testing.T) {
	o := defaults("Gaussian")
	o.physRegs, o.gpu = 512, true
	out, err := runString(t, o)
	if err != nil {
		t.Fatalf("whole-GPU run: %v", err)
	}
	if !strings.HasPrefix(out, "whole GPU        16 SMs, ") {
		t.Errorf("whole-GPU report does not open with the device line:\n%s", out)
	}
}

func TestRunKernelFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.asm")
	src := `
.kernel filetest
.reg 4
    s2r  r0, %tid.x
    shl  r1, r0, 2
    imul r2, r0, 3
    iadd r3, r1, c[0]
    st.global [r3+0], r2
    exit
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o := defaults("")
	o.kernel, o.ctas, o.threads, o.conc = path, 8, 64, 2
	out, err := runString(t, o)
	if err != nil {
		t.Fatalf("kernel file run: %v", err)
	}
	if !strings.HasPrefix(out, "kernel           filetest (4 architected regs") {
		t.Errorf("kernel file report:\n%s", out)
	}
}

// TestJSONOutput checks -json parses as the shared jobs.Result encoding
// and equals the service's encoding of the same job.
func TestJSONOutput(t *testing.T) {
	o := defaults("VectorAdd")
	o.physRegs, o.gating, o.json = 512, true, true
	out, err := runString(t, o)
	if err != nil {
		t.Fatal(err)
	}
	var res jobs.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not a jobs.Result: %v\n%s", err, out)
	}
	if res.Kernel == "" || res.Cycles == 0 || res.StoresDigest == "" {
		t.Errorf("incomplete JSON result: %s", out)
	}
	want, err := jobs.Execute(context.Background(), jobs.Job{
		Workload: "VectorAdd", Mode: "compiler", PhysRegs: 512, PowerGating: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want.JSON()) {
		t.Errorf("CLI and service encodings disagree:\n%s\nvs\n%s", out, want.JSON())
	}
}

func TestRunErrors(t *testing.T) {
	for name, mutate := range map[string]func(*options){
		"no workload or kernel": func(o *options) { o.workload = "" },
		"bogus mode":            func(o *options) { o.mode = "bogus" },
		"unknown workload":      func(o *options) { o.workload = "NoSuchWorkload" },
		"missing kernel file":   func(o *options) { o.workload, o.kernel = "", "/nonexistent.asm" },
		"physregs not /16":      func(o *options) { o.physRegs = 100 },
	} {
		o := defaults("VectorAdd")
		mutate(&o)
		if _, err := runString(t, o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestModeGrammar pins the CLI mode grammar: every registered spelling
// parses, and an unknown spelling produces an error that enumerates all
// valid modes — so a user who typos a backend name learns the full menu.
func TestModeGrammar(t *testing.T) {
	o := defaults("VectorAdd")
	o.mode = "virtual"
	_, err := runString(t, o)
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, name := range rename.ModeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-mode error %q does not list %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), `"virtual"`) {
		t.Errorf("unknown-mode error %q does not echo the bad input", err)
	}
	// The legacy alias still parses.
	o.mode = "hw-only"
	if _, err := runString(t, o); err != nil {
		t.Errorf("alias hw-only rejected: %v", err)
	}
}

// TestLocalMatchesRemote runs each case in process (-json) and through
// -remote against an in-process regvd server: the printed bytes must be
// identical, and a run that fails must fail with the same message on
// both paths. The rows cover the backend encodings (regcache's
// explicit "rfcache", smemspill's counters), -table 0 and -1 (both
// unconstrained), the hwonly deadlock, and the whole-device path.
func TestLocalMatchesRemote(t *testing.T) {
	srv := httptest.NewServer(jobs.NewServer(jobs.NewPool(2)).Handler())
	t.Cleanup(srv.Close)

	type row struct {
		name string
		o    options
	}
	var rows []row
	for _, w := range []string{"VectorAdd", "Heartwall"} {
		for _, mode := range rename.ModeNames() {
			o := defaults(w)
			o.mode, o.physRegs = mode, 512
			rows = append(rows, row{w + "/" + mode, o})
		}
	}
	for _, table := range []int{0, -1} {
		o := defaults("Heartwall")
		o.table = table
		rows = append(rows, row{fmt.Sprintf("Heartwall/table%d", table), o})
	}
	gpu := defaults("Gaussian")
	gpu.mode, gpu.physRegs, gpu.gpu = "regcache", 512, true
	rows = append(rows, row{"Gaussian/regcache/gpu", gpu})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			local, remote := r.o, r.o
			local.json = true
			remote.remote = srv.URL
			lout, lerr := runString(t, local)
			rout, rerr := runString(t, remote)
			if (lerr == nil) != (rerr == nil) || (lerr != nil && lerr.Error() != rerr.Error()) {
				t.Fatalf("errors differ: local %v, remote %v", lerr, rerr)
			}
			if lout != rout {
				t.Fatalf("local and remote output differ:\n--- local\n%s--- remote\n%s", lout, rout)
			}
			if r.o.mode == "hwonly" && r.o.workload == "Heartwall" {
				if lerr == nil || !strings.Contains(lerr.Error(), "deadlock") {
					t.Errorf("Heartwall hwonly at 512: %v, want the deadlock", lerr)
				}
			} else if lerr != nil {
				t.Fatal(lerr)
			}
			// Unconstrained renaming on Heartwall takes 10,191 cycles at
			// 1024 registers (10,173 under the default 1 KB budget).
			if r.o.table <= 0 && (!strings.Contains(lout, "\"table_bytes\": 0\n") || !strings.Contains(lout, `"cycles": 10191,`)) {
				t.Errorf("-table %d not run unconstrained:\n%s", r.o.table, lout)
			}
		})
	}
}

// TestWakeupZeroRefused: the job API reads wakeup 0 as the 1-cycle
// default, so -wakeup 0 is refused on both paths before any simulation.
func TestWakeupZeroRefused(t *testing.T) {
	for _, remote := range []string{"", "http://127.0.0.1:1"} {
		o := defaults("VectorAdd")
		o.wakeup, o.remote = 0, remote
		if _, err := runString(t, o); err == nil || !strings.Contains(err.Error(), "-wakeup 0") {
			t.Errorf("remote=%q: -wakeup 0 gave %v, want a refusal", remote, err)
		}
	}
}
