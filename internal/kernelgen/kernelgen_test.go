package kernelgen

import (
	"testing"

	"regvirt/internal/cfg"
	"regvirt/internal/compiler"
	"regvirt/internal/liveness"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, Params{MaxItems: 8, MaxDepth: 2, Barriers: true})
	b := Generate(42, Params{MaxItems: 8, MaxDepth: 2, Barriers: true})
	if a.String() != b.String() {
		t.Error("same seed produced different programs")
	}
	c := Generate(43, Params{MaxItems: 8, MaxDepth: 2, Barriers: true})
	if a.String() == c.String() {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratedProgramsValidate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed, Params{Regs: 12, MaxItems: 12, MaxDepth: 3, Barriers: seed%2 == 0})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if _, err := cfg.Build(p); err != nil {
			t.Fatalf("seed %d: cfg: %v", seed, err)
		}
	}
}

func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(seed, Params{Regs: 14, MaxItems: 10, MaxDepth: 2})
		k, err := compiler.Compile(p, compiler.Options{TableBytes: 1024, ResidentWarps: 16})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if err := k.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: compiled output invalid: %v", seed, err)
		}
	}
}

// Structural soundness on random programs: recompute liveness on compiled
// output and assert no release of a live register (the compile-time
// analogue of the runtime poison oracle).
func TestGeneratedReleasesNeverLive(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(seed, Params{Regs: 12, MaxItems: 10, MaxDepth: 3})
		k, err := compiler.Compile(p, compiler.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := cfg.Build(k.Prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		li := liveness.Analyze(g)
		for _, in := range k.Prog.Instrs {
			for i := 0; i < in.NSrc; i++ {
				if in.Rel[i] && li.LiveAfter[in.PC].Has(in.Srcs[i].Reg) {
					t.Fatalf("seed %d: pc %d releases live %v\n%s", seed, in.PC, in.Srcs[i].Reg, k.Prog)
				}
			}
		}
	}
}

func TestParamsClamping(t *testing.T) {
	p := Generate(1, Params{Regs: 1, MaxItems: 0, MaxDepth: 0})
	if err := p.Validate(); err != nil {
		t.Fatalf("clamped params produced invalid program: %v", err)
	}
	q := Generate(1, Params{Regs: 100, MaxItems: 5, MaxDepth: 1})
	if q.RegCount > 30 {
		t.Errorf("RegCount %d exceeds clamp", q.RegCount)
	}
}
