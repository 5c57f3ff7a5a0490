package sim

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"regvirt/internal/rename"
)

// The durability contract: a run resumed from ANY checkpoint — after a
// full gob round trip, the encoding the jobs store uses on disk — must
// produce a Result byte-identical to the uninterrupted run, and the act
// of checkpointing must not perturb the run it observes. The matrix
// reuses the determinism-test workloads (streaming stores, dependent
// loads, barriers) across rename modes, both schedulers and the
// whole-device engine.

// gobRoundTrip pushes a checkpoint through the wire encoding the
// durable store uses, so every resume below exercises serialization.
func gobRoundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	var out Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	return &out
}

func resultJSON(t *testing.T, res *Result, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b
}

func runJSON(t *testing.T, cfg Config, spec LaunchSpec) []byte {
	t.Helper()
	res, err := Run(cfg, spec)
	return resultJSON(t, res, err)
}

func resumeJSON(t *testing.T, cfg Config, spec LaunchSpec, ck *Checkpoint) []byte {
	t.Helper()
	res, err := Resume(cfg, spec, ck)
	return resultJSON(t, res, err)
}

// ckConfigs are the single-SM configuration axes the resume matrix
// covers: the default LRR scheduler, and a stressed variant exercising
// GTO's greedy pointer, power gating, poisoning and periodic
// self-checks (which would trip on any mis-restored allocator state).
func ckConfigs(mode rename.Mode) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"lrr", Config{Mode: mode, PhysRegs: 512, MaxCycles: 2_000_000}},
		{"gto-gated", Config{
			Mode: mode, PhysRegs: 512, MaxCycles: 2_000_000,
			Scheduler: SchedGTO, PowerGating: true, WakeupLatency: 3,
			PoisonReleased: true, SelfCheckEvery: 512,
		}},
	}
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	for _, w := range gpuDetWorkloads() {
		for _, m := range detModes() {
			for _, cc := range ckConfigs(m.mode) {
				t.Run(fmt.Sprintf("%s/%s/%s", w.name, m.name, cc.name), func(t *testing.T) {
					spec := gpuDetSpec(t, w, m.mode)
					cfg := m.apply(cc.cfg)
					ref := runJSON(t, cfg, spec)

					var cks []*Checkpoint
					ckCfg := cfg
					ckCfg.CheckpointEvery = 64
					ckCfg.Checkpoint = func(c *Checkpoint) { cks = append(cks, c) }
					observed := runJSON(t, ckCfg, spec)
					if !bytes.Equal(ref, observed) {
						t.Fatal("checkpointing perturbed the run it observed")
					}
					if len(cks) == 0 {
						t.Fatal("run produced no checkpoints (CheckpointEvery too coarse for the workload)")
					}
					for _, i := range []int{0, len(cks) / 2, len(cks) - 1} {
						got := resumeJSON(t, cfg, spec, gobRoundTrip(t, cks[i]))
						if !bytes.Equal(ref, got) {
							t.Errorf("resume from checkpoint %d (cycle %d) diverges", i, cks[i].Cycle)
						}
					}
				})
			}
		}
	}
}

func TestResumeGPUMatchesUninterrupted(t *testing.T) {
	for _, w := range gpuDetWorkloads() {
		for _, m := range detModes() {
			t.Run(fmt.Sprintf("%s/%s", w.name, m.name), func(t *testing.T) {
				spec := gpuDetSpec(t, w, m.mode)
				cfg := m.apply(Config{Mode: m.mode, PhysRegs: 512, MaxCycles: 2_000_000})
				ref, err := gpuResultJSON(t, cfg, spec)
				if err != nil {
					t.Fatal(err)
				}

				var cks []*Checkpoint
				ckCfg := cfg
				ckCfg.CheckpointEvery = 64
				ckCfg.Checkpoint = func(c *Checkpoint) { cks = append(cks, c) }
				res, err := RunGPU(ckCfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				observed, _ := json.Marshal(res)
				if !bytes.Equal(ref, observed) {
					t.Fatal("checkpointing perturbed the device run it observed")
				}
				if len(cks) == 0 {
					t.Fatal("device run produced no checkpoints")
				}
				for _, i := range []int{0, len(cks) / 2, len(cks) - 1} {
					got, rerr := ResumeGPU(cfg, spec, gobRoundTrip(t, cks[i]))
					if rerr != nil {
						t.Fatalf("resume ck %d: %v", i, rerr)
					}
					gotJSON, _ := json.Marshal(got)
					if !bytes.Equal(ref, gotJSON) {
						t.Errorf("resume from device checkpoint %d diverges", i)
					}
				}
			})
		}
	}
}

// TestCheckpointOnCancel is the graceful-shutdown path: a cancelled run
// emits a final consistent snapshot, and resuming it completes with the
// uninterrupted result.
func TestCheckpointOnCancel(t *testing.T) {
	w := gpuDetWorkloads()[0]
	spec := gpuDetSpec(t, w, rename.ModeCompiler)
	cfg := Config{Mode: rename.ModeCompiler, PhysRegs: 512, MaxCycles: 2_000_000}

	t.Run("single-sm", func(t *testing.T) {
		ref := runJSON(t, cfg, spec)
		cancel := make(chan struct{})
		close(cancel) // cancelled before the first cycle's poll
		var last *Checkpoint
		ckCfg := cfg
		ckCfg.Cancel = cancel
		ckCfg.Checkpoint = func(c *Checkpoint) { last = c }
		if _, err := Run(ckCfg, spec); !errors.Is(err, ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		if last == nil {
			t.Fatal("cancelled run emitted no shutdown checkpoint")
		}
		got := resumeJSON(t, cfg, spec, gobRoundTrip(t, last))
		if !bytes.Equal(ref, got) {
			t.Fatal("resume after cancellation diverges from uninterrupted run")
		}
	})

	t.Run("device", func(t *testing.T) {
		ref, err := gpuResultJSON(t, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel mid-run, from the checkpoint hook itself (synchronous on
		// the engine goroutine, so the abort point is deterministic).
		cancel := make(chan struct{})
		var last *Checkpoint
		ckCfg := cfg
		ckCfg.Cancel = cancel
		ckCfg.CheckpointEvery = 300
		ckCfg.Checkpoint = func(c *Checkpoint) {
			last = c
			select {
			case <-cancel:
			default:
				close(cancel)
			}
		}
		if _, err := RunGPU(ckCfg, spec); !errors.Is(err, ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		if last == nil {
			t.Fatal("cancelled device run emitted no shutdown checkpoint")
		}
		got, rerr := ResumeGPU(cfg, spec, gobRoundTrip(t, last))
		if rerr != nil {
			t.Fatal(rerr)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(ref, gotJSON) {
			t.Fatal("device resume after cancellation diverges from uninterrupted run")
		}
	})
}

// TestResumeValidatesGeometry: a checkpoint applied against the wrong
// config or launch must fail loudly, never silently mis-restore.
func TestResumeValidatesGeometry(t *testing.T) {
	w := gpuDetWorkloads()[0]
	spec := gpuDetSpec(t, w, rename.ModeCompiler)
	cfg := Config{Mode: rename.ModeCompiler, PhysRegs: 512, MaxCycles: 2_000_000}
	var cks []*Checkpoint
	ckCfg := cfg
	ckCfg.CheckpointEvery = 256
	ckCfg.Checkpoint = func(c *Checkpoint) { cks = append(cks, c) }
	if _, err := Run(ckCfg, spec); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	ck := cks[0]

	if _, err := Resume(cfg, spec, nil); err == nil {
		t.Error("Resume(nil checkpoint) must fail")
	}
	if _, err := ResumeGPU(cfg, spec, ck); err == nil {
		t.Error("ResumeGPU with a single-SM checkpoint must fail")
	}
	bigCfg := cfg
	bigCfg.PhysRegs = 1024
	if _, err := Resume(bigCfg, spec, ck); err == nil {
		t.Error("Resume with mismatched PhysRegs must fail")
	}
	bigSpec := spec
	bigSpec.GridCTAs = 480
	if _, err := Resume(cfg, bigSpec, ck); err == nil {
		t.Error("Resume with mismatched grid must fail")
	}

	// Corrupted indices must error, not panic.
	bad := gobRoundTrip(t, ck)
	if len(bad.SM.Ready) > 0 {
		bad.SM.Ready[0] = 99999
		if _, err := Resume(cfg, spec, bad); err == nil {
			t.Error("Resume with out-of-range warp index must fail")
		}
	}
}
