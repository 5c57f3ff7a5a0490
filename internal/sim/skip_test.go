package sim

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

// Stall skipping must be invisible: every engine, on every backend,
// with every cadence that ends a sleep, produces the bytes a run
// stepped one cycle at a time produces — results, errors, and every
// checkpoint along the way.

// skipOptions are the observers whose cadences end a sleep, each on in
// one configuration and off in the others.
var skipOptions = []struct {
	name string
	set  func(*Config)
}{
	{"plain", func(*Config) {}},
	{"profile", func(c *Config) { c.Profile = true }},
	{"traced", func(c *Config) {
		c.Trace = TraceConfig{SampleLiveEvery: 97, TrackWarp: 1, TrackRegs: []isa.RegID{1, 2, 5}}
	}},
	{"selfcheck", func(c *Config) { c.SelfCheckEvery = 251; c.PoisonReleased = true }},
}

// skipCheckpointEvery is the odd checkpoint cadence of the resume legs.
const skipCheckpointEvery = 997

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameOutcome fails unless two runs ended alike: the same error text,
// or the same result bytes.
func sameOutcome(t *testing.T, what string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err %v, stepped %v", what, gotErr, wantErr)
		}
		return
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s: %d result bytes differ from the stepped run's %d", what, len(g), len(w))
	}
}

// checkpointRecorder collects every checkpoint of a run as gob bytes.
func checkpointRecorder(t *testing.T, cfg Config) (Config, *[][]byte) {
	var cks [][]byte
	cfg.CheckpointEvery = skipCheckpointEvery
	cfg.Checkpoint = func(c *Checkpoint) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			t.Errorf("encode checkpoint: %v", err)
		}
		cks = append(cks, buf.Bytes())
	}
	return cfg, &cks
}

func decodeCheckpoint(t *testing.T, b []byte) *Checkpoint {
	t.Helper()
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	return &ck
}

// sameCheckpoints fails unless both runs took the same checkpoints.
func sameCheckpoints(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d checkpoints, stepped run took %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: checkpoint %d differs from the stepped run's", what, i)
		}
	}
}

// checkSingle compares Run, and Resume from the odd-cadence
// checkpoints, with the SM stepped one cycle at a time; it returns the
// cycles a skipping run slept.
func checkSingle(t *testing.T, cfg Config, spec LaunchSpec) uint64 {
	t.Helper()
	sm, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := sm.FinishStepped()
	got, gotErr := Run(cfg, spec)
	sameOutcome(t, "Run", got, want, gotErr, wantErr)

	skip, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	skip.Finish()

	ckCfg, cks := checkpointRecorder(t, cfg)
	stepped, err := NewLaunchedSM(ckCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	stepped.FinishStepped()
	steppedCks := *cks
	*cks = nil
	Run(ckCfg, spec)
	sameCheckpoints(t, "Run", *cks, steppedCks)
	for _, i := range []int{0, len(steppedCks) / 2} {
		if i < len(steppedCks) {
			res, err := Resume(cfg, spec, decodeCheckpoint(t, steppedCks[i]))
			sameOutcome(t, fmt.Sprintf("Resume from checkpoint %d", i), res, want, err, wantErr)
		}
	}
	return skip.Slept()
}

// checkDevice is checkSingle for RunGPU and ResumeGPU.
func checkDevice(t *testing.T, cfg Config, spec LaunchSpec) uint64 {
	t.Helper()
	eng, err := NewLaunchedGPU(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := eng.FinishStepped()
	got, gotErr := RunGPU(cfg, spec)
	sameOutcome(t, "RunGPU", got, want, gotErr, wantErr)

	skip, err := NewLaunchedGPU(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	skip.Finish()

	ckCfg, cks := checkpointRecorder(t, cfg)
	stepped, err := NewLaunchedGPU(ckCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	stepped.FinishStepped()
	steppedCks := *cks
	*cks = nil
	RunGPU(ckCfg, spec)
	sameCheckpoints(t, "RunGPU", *cks, steppedCks)
	for _, i := range []int{0, len(steppedCks) / 2} {
		if i < len(steppedCks) {
			res, err := ResumeGPU(cfg, spec, decodeCheckpoint(t, steppedCks[i]))
			sameOutcome(t, fmt.Sprintf("ResumeGPU from checkpoint %d", i), res, want, err, wantErr)
		}
	}
	return skip.Slept()
}

// TestSkippingIsExactPerBackend runs the determinism workloads on all
// five backends through Run, RunGPU, RunSequence, Resume and ResumeGPU,
// with each sleep-ending observer on and off, against the same launches
// stepped one cycle at a time; then the §8.1 spill case and a
// deadlocking launch.
func TestSkippingIsExactPerBackend(t *testing.T) {
	t.Run("spill", skipSpillFallback)
	t.Run("spill-trigger", skipSpillTrigger)
	t.Run("deadlock", skipDeadlock)
	k2, err := compiler.Compile(isa.MustParse(phase2Src), compiler.Options{TableBytes: 1024, ResidentWarps: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range detModes() {
		for _, w := range gpuDetWorkloads() {
			for _, o := range skipOptions {
				t.Run(fmt.Sprintf("%s/%s/%s", m.name, w.name, o.name), func(t *testing.T) {
					spec := gpuDetSpec(t, w, m.mode)
					cfg := m.apply(Config{Mode: m.mode, PhysRegs: 512, MaxCycles: 2_000_000})
					o.set(&cfg)
					if checkSingle(t, cfg, spec)+checkDevice(t, cfg, spec) == 0 {
						t.Error("no run slept, so skipping was not compared")
					}

					next := LaunchSpec{Kernel: k2, GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
						Consts: []uint32{64, 0x8000, 0x20000}}
					if m.mode != rename.ModeCompiler {
						next.Kernel = noFlags(t, phase2Src)
					}
					want, wantErr := RunSequenceStepped(cfg, spec, next)
					got, gotErr := RunSequence(cfg, spec, next)
					sameOutcome(t, "RunSequence", got, want, gotErr, wantErr)
				})
			}
		}
	}
}

// noFlags compiles src without release metadata, for the backends that
// do not read it.
func noFlags(t *testing.T, src string) *compiler.Kernel {
	t.Helper()
	k, err := compiler.Compile(isa.MustParse(src), compiler.Options{TableBytes: 1024, ResidentWarps: 4, NoFlags: true})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// skipSpillFallback is the §8.1 spill case: at 80 registers the hungry
// kernel runs on warp spills, so sleeps must end on the spill-trigger
// and restore cycles.
func skipSpillFallback(t *testing.T) {
	spec, err := HungrySpec()
	if err != nil {
		t.Fatal(err)
	}
	// The run is long (164,468 cycles), so the observers are on all at
	// once or all off.
	for _, all := range []bool{false, true} {
		t.Run(fmt.Sprint("observed=", all), func(t *testing.T) {
			cfg := Config{Mode: rename.ModeCompiler, PhysRegs: 80, MaxCycles: 400_000}
			if all {
				for _, o := range skipOptions {
					o.set(&cfg)
				}
			}
			sm, err := NewLaunchedSM(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := sm.FinishStepped()
			if wantErr == nil && want.Spills == 0 {
				t.Fatal("the hungry kernel never spilled at 80 registers")
			}
			if slept := checkSingle(t, cfg, spec); slept == 0 {
				t.Error("the spill run never slept")
			}
		})
	}
}

// skipSpillTrigger makes a sleep span a §8.1 spill trigger. The runs
// above reach every trigger through busy stretches of allocation
// stalls, so here a checkpoint taken just before a long sleep has its
// lastProgress moved back until the trigger falls inside the sleep;
// resumed stepped and skipping, it must end alike.
func skipSpillTrigger(t *testing.T) {
	spec, err := HungrySpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: rename.ModeCompiler, PhysRegs: 80, MaxCycles: 400_000}
	probe, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.stepEvery = true
	const lead = 32 // cycles from the quiet step to the trigger
	tried := 0
	for tried < 4 && !probe.finished() {
		if probe.asleep() {
			probe.catchUp(probe.wake)
		}
		c := probe.cycle
		if err := probe.stepChecked(); err != nil {
			t.Fatal(err)
		}
		if !probe.asleep() || probe.wake-probe.cycle < 2*lead || c < 2*spillTriggerWindow {
			continue
		}
		for ref.cycle < c {
			if err := ref.stepChecked(); err != nil {
				t.Fatal(err)
			}
		}
		ck := &Checkpoint{Cycle: c, SM: ref.snapshot()}
		ck.SM.LastProgress = c + lead - 2*spillTriggerWindow
		stepped, err := newSM(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := stepped.restore(gobRoundTrip(t, ck).SM); err != nil {
			t.Fatal(err)
		}
		want, wantErr := stepped.FinishStepped()
		got, gotErr := Resume(cfg, spec, gobRoundTrip(t, ck))
		sameOutcome(t, fmt.Sprintf("resume at cycle %d with a trigger at %d", c, c+lead), got, want, gotErr, wantErr)
		tried++
	}
	if tried == 0 {
		t.Fatal("no sleep long enough to hold a trigger")
	}
}

// skipDeadlock: a launch whose one CTA cannot get its registers idles
// until the deadlock window closes; the skipping run sleeps there and
// must report ErrDeadlock at the same cycle.
func skipDeadlock(t *testing.T) {
	k, err := compiler.Compile(isa.MustParse(hungrySrc), compiler.Options{TableBytes: 1024, ResidentWarps: 16, NoFlags: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := hungrySpec(k)
	cfg := Config{Mode: rename.ModeBaseline, PhysRegs: 64}
	sm, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := sm.FinishStepped()
	if !IsDeadlock(wantErr) {
		t.Fatalf("stepped run: err %v, want a deadlock", wantErr)
	}
	skip, err := NewLaunchedSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, gotErr := skip.Finish()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("err %v, stepped %v", gotErr, wantErr)
	}
	if skip.Slept() == 0 {
		t.Error("the deadlocking run never slept")
	}
	_, err = Run(cfg, spec)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Run: err %v, stepped %v", err, wantErr)
	}
}
