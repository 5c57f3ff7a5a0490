package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/rename"
)

// hookFiring returns a FaultHook that fails the nth hit of site
// (1-based) with err and passes every other call.
func hookFiring(site string, nth int, err error) func(string) error {
	count := 0
	return func(s string) error {
		if s != site {
			return nil
		}
		if count++; count == nth {
			return err
		}
		return nil
	}
}

func TestFaultHookAllocReturnsInvariantError(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	_, err := Run(Config{Mode: rename.ModeCompiler, FaultHook: hookFiring(FaultSiteAlloc, 1, errors.New("boom"))},
		withKernel(saxpySpec(), k))
	if err == nil {
		t.Fatal("Run succeeded, want invariant error")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T (%v), want *InvariantError", err, err)
	}
	if !strings.Contains(ie.Msg, "injected") {
		t.Errorf("Msg %q does not mark the fault as injected", ie.Msg)
	}
	if ie.Warp < 0 || ie.PC < 0 || ie.CTA < 0 {
		t.Errorf("invariant context incomplete: %+v", ie)
	}
}

func TestFaultHookMemAcceptFailsRun(t *testing.T) {
	cause := errors.New("port burned out")
	_, err := Run(Config{Mode: rename.ModeCompiler, FaultHook: hookFiring(FaultSiteMemAccept, 1, cause)},
		withKernel(saxpySpec(), compileFor(t, saxpySrc, compiler.Options{})))
	if err == nil {
		t.Fatal("Run succeeded, want memory fault")
	}
	if !errors.Is(err, cause) {
		t.Errorf("error %v does not wrap the hook's cause", err)
	}
	if !strings.Contains(err.Error(), "memory port fault") {
		t.Errorf("error %v is not labeled as a memory port fault", err)
	}
}

// TestFaultHookPassThroughIsInert pins that a hook which never fires
// changes nothing: same cycles, same stores as no hook at all.
func TestFaultHookPassThroughIsInert(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	bare, err := Run(Config{Mode: rename.ModeCompiler}, withKernel(saxpySpec(), k))
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Run(Config{Mode: rename.ModeCompiler, FaultHook: func(string) error { return nil }},
		withKernel(saxpySpec(), k))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != hooked.Cycles || len(bare.Stores) != len(hooked.Stores) {
		t.Errorf("pass-through hook changed the run: %d/%d cycles, %d/%d stores",
			bare.Cycles, hooked.Cycles, len(bare.Stores), len(hooked.Stores))
	}
}

// TestLaterAllocFaultCarriesProgressContext fires the fault deep into
// the run so the reported cycle is meaningfully non-zero.
func TestLaterAllocFaultCarriesProgressContext(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	_, err := Run(Config{Mode: rename.ModeCompiler, FaultHook: hookFiring(FaultSiteAlloc, 40, errors.New("boom"))},
		withKernel(saxpySpec(), k))
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T (%v), want *InvariantError", err, err)
	}
	if ie.Cycle == 0 {
		t.Errorf("fault at alloc hit 40 reports cycle 0: %+v", ie)
	}
}

// TestRunGPUPanicInHookIsContained: a panic raised in an SM's compute
// phase well into a device run comes back as an error, never crashes
// the process.
func TestRunGPUPanicInHookIsContained(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	allocs := 0
	cfg := Config{Mode: rename.ModeCompiler, FaultHook: func(s string) error {
		if s == FaultSiteAlloc {
			if allocs++; allocs == 100 {
				panic(fmt.Sprintf("injected panic at %s", s))
			}
		}
		return nil
	}}
	_, err := RunGPU(cfg, withKernel(saxpySpec(), k))
	if err == nil {
		t.Fatal("RunGPU succeeded, want contained panic error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error %v does not report the panic", err)
	}
}

// TestRunGPUSequentialPanicIsContained: the same containment contract
// for a panic at the first allocation of the run.
func TestRunGPUSequentialPanicIsContained(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	fired := false
	cfg := Config{Mode: rename.ModeCompiler, FaultHook: func(s string) error {
		if s == FaultSiteAlloc && !fired {
			fired = true
			panic("injected panic")
		}
		return nil
	}}
	_, err := RunGPU(cfg, withKernel(saxpySpec(), k))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want contained panic error", err)
	}
}

// TestRunGPUFaultNamesFailingSM: the contained error identifies which
// SM tripped, so a structured 500 can localize the failure.
func TestRunGPUFaultNamesFailingSM(t *testing.T) {
	k := compileFor(t, saxpySrc, compiler.Options{})
	_, err := RunGPU(Config{Mode: rename.ModeCompiler,
		FaultHook: hookFiring(FaultSiteAlloc, 1, errors.New("boom"))},
		withKernel(saxpySpec(), k))
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T (%v), want *InvariantError", err, err)
	}
}

func withKernel(spec LaunchSpec, k *compiler.Kernel) LaunchSpec {
	spec.Kernel = k
	return spec
}
