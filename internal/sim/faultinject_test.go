package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

// These tests validate the *oracle*: if the compiler emitted unsound
// release metadata, the poison machinery must turn it into an observable
// output difference. A verification harness that cannot catch injected
// bugs proves nothing.

// faultKernel: r2 is written once and read twice with a gap; releasing
// it at the first read is unsound.
const faultSrc = `
.kernel fault
.reg 6
    s2r  r0, %tid.x
    s2r  r1, %ctaid.x
    imad r0, r1, c[0], r0
    movi r2, 1234
    iadd r3, r2, 1
    iadd r4, r3, 7
    iadd r4, r4, r2
    shl  r5, r0, 2
    iadd r5, r5, c[1]
    st.global [r5+0], r4
    exit
`

func faultSpec(k *compiler.Kernel) LaunchSpec {
	return LaunchSpec{
		Kernel: k, GridCTAs: 16, ThreadsPerCTA: 64, ConcCTAs: 2,
		Consts: []uint32{64, 0x9000},
	}
}

// injectEarlyPir returns a copy of virt (compiled from faultSrc) that
// releases r2 at its FIRST read (the iadd r3, r2, 1), which is unsound
// because r2 is read again two instructions later, together with the
// register that read releases.
func injectEarlyPir(t *testing.T, virt *compiler.Kernel) (*compiler.Kernel, isa.RegID) {
	t.Helper()
	bad := virt.Prog.Clone()
	for _, in := range bad.Instrs {
		if in.Op == isa.OpIAdd && in.NSrc == 2 &&
			in.Srcs[1].Kind == isa.OpdImm && in.Srcs[1].Imm == 1 {
			if in.Rel[0] {
				t.Fatal("compiler already releases here?!")
			}
			in.Rel[0] = true
			k := *virt
			k.Prog = bad
			return &k, in.Srcs[0].Reg
		}
	}
	t.Fatalf("could not find injection site:\n%s", bad)
	return nil, 0
}

func TestInjectedPirFaultIsCaught(t *testing.T) {
	base, err := compiler.Compile(isa.MustParse(faultSrc), compiler.Options{NoFlags: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{Mode: rename.ModeBaseline}, faultSpec(base))
	if err != nil {
		t.Fatal(err)
	}
	virt, err := compiler.Compile(isa.MustParse(faultSrc), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the clean compiled kernel matches.
	clean, err := Run(Config{Mode: rename.ModeCompiler, PoisonReleased: true}, faultSpec(virt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Stores, ref.Stores) {
		t.Fatal("clean kernel already differs; fault injection meaningless")
	}
	k, _ := injectEarlyPir(t, virt)
	faulty, err := Run(Config{Mode: rename.ModeCompiler, PoisonReleased: true}, faultSpec(k))
	if err != nil {
		// A hard failure (invariant violation) is also an acceptable
		// detection.
		t.Logf("fault detected as error: %v", err)
		return
	}
	if reflect.DeepEqual(faulty.Stores, ref.Stores) {
		t.Error("unsound pir release went UNDETECTED — the poison oracle is broken")
	}
}

func TestInjectedPbrFaultIsCaught(t *testing.T) {
	// A diamond whose join reads a register live across it; injecting a
	// pbr release of that register at the join must corrupt output.
	src := `
.kernel pfault
.reg 7
    s2r  r0, %tid.x
    s2r  r1, %ctaid.x
    imad r0, r1, c[0], r0
    movi r2, 99
    and  r3, r0, 1
    isetp.eq p0, r3, 0
@p0 bra even_bb
    movi r4, 3
    bra join
even_bb:
    movi r4, 5
join:
    iadd r5, r4, r2
    iadd r5, r5, r2
    shl  r6, r0, 2
    iadd r6, r6, c[1]
    st.global [r6+0], r5
    exit
`
	base, err := compiler.Compile(isa.MustParse(src), compiler.Options{NoFlags: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{Mode: rename.ModeBaseline}, faultSpec(base))
	if err != nil {
		t.Fatal(err)
	}
	virt, err := compiler.Compile(isa.MustParse(src), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := virt.Prog.Clone()
	// Find the register holding 99 (long-lived, read twice at the join)
	// in the renumbered program: the movi with imm 99.
	var victim isa.RegID = 255
	for _, in := range bad.Instrs {
		if in.Op == isa.OpMovi && in.Srcs[0].Imm == 99 {
			victim = in.Dst.Reg
		}
	}
	if victim == 255 {
		t.Fatal("victim register not found")
	}
	// Inject a pbr releasing it at the join block (prepend to the join's
	// first pbr, or flip a Rel bit on its first read).
	injected := false
	for _, in := range bad.Instrs {
		if in.Op == isa.OpIAdd && in.NSrc == 2 && in.Srcs[1].IsReg() && in.Srcs[1].Reg == victim && !in.Rel[1] {
			in.Rel[1] = true
			injected = true
			break
		}
	}
	if !injected {
		t.Fatalf("no injection site:\n%s", bad)
	}
	k := *virt
	k.Prog = bad
	faulty, err := Run(Config{Mode: rename.ModeCompiler, PoisonReleased: true}, faultSpec(&k))
	if err != nil {
		t.Logf("fault detected as error: %v", err)
		return
	}
	if reflect.DeepEqual(faulty.Stores, ref.Stores) {
		t.Error("unsound release of a join-live register went UNDETECTED")
	}
}

// Without poisoning, the same fault may escape when the physical
// register is not re-allocated before the second read — demonstrating
// why PoisonReleased exists.
func TestPoisonStrictlyStrongerThanPlainEquivalence(t *testing.T) {
	virt, err := compiler.Compile(isa.MustParse(faultSrc), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := injectEarlyPir(t, virt)
	// Run without poison at a huge file: the freed register is unlikely
	// to be re-allocated, so the stale value survives and the bug hides.
	quiet, err := Run(Config{Mode: rename.ModeCompiler}, faultSpec(k))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := compiler.Compile(isa.MustParse(faultSrc), compiler.Options{NoFlags: true})
	ref, err := Run(Config{Mode: rename.ModeBaseline}, faultSpec(base))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quiet.Stores, ref.Stores) {
		t.Skip("fault visible even without poison on this schedule")
	}
	// Same fault, poison on: must be caught now.
	loud, err := Run(Config{Mode: rename.ModeCompiler, PoisonReleased: true}, faultSpec(k))
	if err != nil {
		return
	}
	if reflect.DeepEqual(loud.Stores, ref.Stores) {
		t.Error("poisoning failed to expose a fault that plain equivalence missed")
	}
}

// TestPoisonedReadOfReleasedRegisterFails: under PoisonReleased, the
// second read of the register the injected pir released finds it
// unmapped, and the run — on one SM and on the whole device — fails
// with an *InvariantError naming that register instead of completing
// on a silent zero.
func TestPoisonedReadOfReleasedRegisterFails(t *testing.T) {
	virt, err := compiler.Compile(isa.MustParse(faultSrc), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, victim := injectEarlyPir(t, virt)
	cfg := Config{Mode: rename.ModeCompiler, PoisonReleased: true}
	runs := map[string]func() error{
		"single-sm": func() error { _, err := Run(cfg, faultSpec(k)); return err },
		"device":    func() error { _, err := RunGPU(cfg, faultSpec(k)); return err },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			err := run()
			var inv *InvariantError
			if !errors.As(err, &inv) {
				t.Fatalf("read after release: err = %v, want *InvariantError", err)
			}
			if want := "register " + victim.String() + " "; !strings.Contains(inv.Msg, want) {
				t.Errorf("invariant %q does not name the released register %v", inv.Msg, victim)
			}
		})
	}
}
