package sim

import (
	"testing"

	"regvirt/internal/compiler"
	"regvirt/internal/isa"
	"regvirt/internal/rename"
)

// A ScalarProd-shaped pressure kernel: 17 registers, product-accumulate
// loop, shared-memory tree reduction. 48 resident warps x 17 registers
// far exceeds a 512-register file, forcing sustained throttling.
const pressureSrc = `
.kernel pressure
.reg 17
    s2r  r0, %tid.x
    s2r  r1, %ctaid.x
    imad r2, r1, c[0], r0
    movi r3, 0
    movi r4, 0
    movi r16, 0
aloop:
    imad r5, r3, c[0], r2
    shl  r5, r5, 2
    iadd r6, r5, c[1]
    ld.global r7, [r6+0]
    iadd r6, r5, c[2]
    ld.global r8, [r6+0]
    imad r4, r7, r8, r4
    xor  r16, r16, r7
    iadd r3, r3, 1
    isetp.lt p0, r3, c[3]
@p0 bra aloop
    shl  r9, r0, 2
    st.shared [r9+0], r4
    bar
    mov  r10, c[4]
rloop:
    isetp.lt p1, r0, r10
@p1 iadd r11, r0, r10
@p1 shl  r11, r11, 2
@p1 ld.shared r12, [r11+0]
@p1 ld.shared r13, [r9+0]
@p1 iadd r12, r12, r13
@p1 st.shared [r9+0], r12
    bar
    shr  r10, r10, 1
    isetp.gt p2, r10, 0
@p2 bra rloop
    isetp.eq p3, r0, 0
@p3 ld.shared r14, [rz+0]
@p3 shl  r15, r1, 2
@p3 iadd r15, r15, c[5]
@p3 st.global [r15+0], r14
    exit
`

// TestShrinkUnderHeavyPressure is the regression canary for the 512-
// register stall: a 48-warp, 17-register kernel must complete under
// GPU-shrink. On failure it dumps the stuck machine state.
func TestShrinkUnderHeavyPressure(t *testing.T) {
	k, err := compiler.Compile(isa.MustParse(pressureSrc), compiler.Options{
		TableBytes: 1024, ResidentWarps: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := LaunchSpec{
		GridCTAs: 128, ThreadsPerCTA: 256, ConcCTAs: 6,
		Consts: []uint32{256, 0x0100_0000, 0x0200_0000, 8, 128, 0x0300_0000},
	}
	spec.Kernel = k
	cfg := Config{Mode: rename.ModeCompiler, PhysRegs: 512, MaxCycles: 5_000_000}
	sm, err := newSM(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.run()
	if err != nil {
		states := map[warpState]int{}
		mapped := 0
		var pcs []int
		for _, cta := range sm.slots() {
			if cta == nil {
				continue
			}
			for i := range cta.warps {
				wp := &cta.warps[i]
				states[wp.state]++
				mapped += sm.table.MappedCount(wp.slot)
				if wp.state != wFinished && len(pcs) < 12 {
					pcs = append(pcs, wp.pc())
				}
			}
		}
		banks := make([]int, 4)
		for b := range banks {
			banks[b] = sm.file.FreeInBank(b)
		}
		var stuck string
		if len(pcs) > 0 {
			in := sm.prog.Instrs[pcs[0]]
			stuck = in.String()
			for _, cta := range sm.slots() {
				if cta == nil {
					continue
				}
				for i := range cta.warps {
					wp := &cta.warps[i]
					if wp.state == wReady {
						stuck += " | hazard=" + boolStr(sm.hazard(wp, sm.prog.Instrs[wp.pc()]))
						d, ok := sm.prog.Instrs[wp.pc()].DstReg()
						if ok {
							stuck += " needsAlloc=" + boolStr(sm.needsAlloc(wp, d))
						}
						stuck += " busy=" + wp.busyRegs.String()
						break
					}
				}
			}
		}
		t.Fatalf("%v\n states=%v free=%d banks=%v mapped=%d spills=%d failedAllocs=%d throttles=%d blocked=%d instrs=%d ready=%d pending=%d wbOut=%d memOut=%d pcs=%v stuck=%q",
			err, states, sm.file.FreeTotal(), banks, mapped, sm.res.Spills,
			sm.file.Stats().FailedAllocs,
			sm.gov.Throttles, sm.gov.Blocked, sm.res.Instrs,
			len(sm.ready), len(sm.pendingQ), sm.wbQueue.len(), sm.mem.(*memSys).outstanding, pcs, stuck)
	}
	t.Logf("completed: %d cycles, %d instrs, %d spills, %d throttle blocks",
		res.Cycles, res.Instrs, res.Spills, res.Throttle.Blocked)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
