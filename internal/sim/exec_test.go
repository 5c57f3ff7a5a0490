package sim

import (
	"maps"
	"math"
	"testing"

	"regvirt/internal/isa"
)

// aluCase runs evalALU with scalar operands broadcast across lanes.
func aluCase(op isa.Opcode, a, b, c uint32, sel uint32) uint32 {
	in := &isa.Instr{Op: op, NSrc: 3}
	var src [isa.MaxSrcOperands]lanes
	for l := 0; l < len(src[0]); l++ {
		src[0][l], src[1][l], src[2][l] = a, b, c
	}
	var out lanes
	evalALU(in, &src, sel, &out)
	return out[0]
}

func TestEvalALUInteger(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, b, c uint32
		want    uint32
	}{
		{isa.OpMov, 5, 0, 0, 5},
		{isa.OpIAdd, 3, 4, 0, 7},
		{isa.OpIAdd, 0xffffffff, 1, 0, 0}, // wraparound
		{isa.OpISub, 3, 5, 0, 0xfffffffe},
		{isa.OpIMul, 6, 7, 0, 42},
		{isa.OpIMad, 2, 3, 4, 10},
		{isa.OpAnd, 0xf0f0, 0xff00, 0, 0xf000},
		{isa.OpOr, 0xf0f0, 0x0f0f, 0, 0xffff},
		{isa.OpXor, 0xff, 0x0f, 0, 0xf0},
		{isa.OpShl, 1, 4, 0, 16},
		{isa.OpShl, 1, 36, 0, 16}, // shift masked to 5 bits
		{isa.OpShr, 0x80000000, 31, 0, 1},
	}
	for _, tc := range cases {
		if got := aluCase(tc.op, tc.a, tc.b, tc.c, 0); got != tc.want {
			t.Errorf("%v(%#x,%#x,%#x) = %#x, want %#x", tc.op, tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	f := func(v float32) uint32 { return math.Float32bits(v) }
	cases := []struct {
		op      isa.Opcode
		a, b, c uint32
		want    float32
	}{
		{isa.OpFAdd, f(1.5), f(2.25), 0, 3.75},
		{isa.OpFMul, f(3), f(-2), 0, -6},
		{isa.OpFFma, f(2), f(3), f(1), 7},
		{isa.OpRcp, f(4), 0, 0, 0.25},
	}
	for _, tc := range cases {
		got := math.Float32frombits(aluCase(tc.op, tc.a, tc.b, tc.c, 0))
		if got != tc.want {
			t.Errorf("%v = %v, want %v", tc.op, got, tc.want)
		}
	}
	// rcp(0) = +Inf, deterministic.
	if got := math.Float32frombits(aluCase(isa.OpRcp, f(0), 0, 0, 0)); !math.IsInf(float64(got), 1) {
		t.Errorf("rcp(0) = %v, want +Inf", got)
	}
}

func TestEvalALUSelPerLane(t *testing.T) {
	in := &isa.Instr{Op: isa.OpSel, NSrc: 2}
	var src [isa.MaxSrcOperands]lanes
	for l := 0; l < len(src[0]); l++ {
		src[0][l] = 100
		src[1][l] = 200
	}
	var out lanes
	evalALU(in, &src, 0x0000ffff, &out)
	for l := 0; l < 16; l++ {
		if out[l] != 100 {
			t.Fatalf("lane %d = %d, want selected 100", l, out[l])
		}
	}
	for l := 16; l < 32; l++ {
		if out[l] != 200 {
			t.Fatalf("lane %d = %d, want alternative 200", l, out[l])
		}
	}
}

func TestEvalCmpLanewise(t *testing.T) {
	var a, b lanes
	for l := range a {
		a[l] = uint32(l)
		b[l] = 16
	}
	m := evalCmp(isa.CmpLT, &a, &b)
	if m != 0x0000ffff {
		t.Errorf("lt mask = %#x, want 0xffff", m)
	}
	// Signed comparison: -1 < 16.
	a[0] = 0xffffffff
	if evalCmp(isa.CmpLT, &a, &b)&1 == 0 {
		t.Error("signed compare treated -1 as large")
	}
}

func TestMemInitDeterministic(t *testing.T) {
	if memInit(100) != memInit(100) {
		t.Error("memInit not deterministic")
	}
	if memInit(100) == memInit(104) {
		t.Error("memInit constant across addresses (suspicious)")
	}
}

func TestMemSysLoadStoreScoping(t *testing.T) {
	m := newMemSys()
	// Global space: unwritten reads hash, written reads value.
	gk := memKey{space: isa.SpaceGlobal, addr: 64}
	if m.load(gk) != memInit(64) {
		t.Error("global read of unwritten word should be the hash fill")
	}
	m.store(gk, 7)
	if m.load(gk) != 7 {
		t.Error("global store lost")
	}
	// Shared space: zero-filled and scoped per CTA.
	s1 := memKey{space: isa.SpaceShared, scope: 1, addr: 0}
	s2 := memKey{space: isa.SpaceShared, scope: 2, addr: 0}
	if m.load(s1) != 0 {
		t.Error("shared space should zero-fill")
	}
	m.store(s1, 9)
	if m.load(s2) != 0 {
		t.Error("shared memory leaked across CTAs")
	}
	// Spill space: per-lane private.
	p1 := memKey{space: isa.SpaceSpill, scope: 3, lane: 0, addr: 0}
	p2 := memKey{space: isa.SpaceSpill, scope: 3, lane: 1, addr: 0}
	m.store(p1, 5)
	if m.load(p2) != 0 {
		t.Error("spill memory leaked across lanes")
	}
}

func TestMemSysContention(t *testing.T) {
	m := newMemSys()
	m.tick(0)
	base := m.latency()
	for i := 0; i < 10; i++ {
		m.accept()
	}
	if m.latency() <= base {
		t.Error("latency should grow with outstanding requests")
	}
	for i := 0; i < 10; i++ {
		m.complete()
	}
	if m.latency() != base {
		t.Error("latency should recover after completion")
	}
}

func TestMemSysPortWidth(t *testing.T) {
	m := newMemSys()
	m.tick(0)
	if !m.canAccept() {
		t.Fatal("fresh memory system should accept")
	}
	m.accept()
	if m.canAccept() {
		t.Error("port width 1: second accept in the same cycle must be refused")
	}
	m.tick(1)
	if !m.canAccept() {
		t.Error("next cycle should accept again")
	}
}

func TestGlobalStoresDigest(t *testing.T) {
	m := newMemSys()
	m.store(memKey{space: isa.SpaceGlobal, addr: 4}, 1)
	m.store(memKey{space: isa.SpaceShared, scope: 1, addr: 8}, 2)
	m.store(memKey{space: isa.SpaceSpill, scope: 1, addr: 12}, 3)
	d := m.global.stores()
	if len(d) != 1 || d[4] != 1 {
		t.Errorf("digest = %v, want only the global store", d)
	}
}

// TestWordTableMatchesMap drives global memory's word table and a Go
// map with the same strided, overwriting and edge-address stores
// across several doublings, and checks that every read and the final
// Stores agree.
func TestWordTableMatchesMap(t *testing.T) {
	var tab wordTable
	ref := map[uint32]uint32{}
	addrs := []uint32{0, 4, emptyAddr, emptyAddr - 3, 1 << 31}
	for i := uint32(0); i < 5000; i++ {
		addrs = append(addrs, 0x10000+i*256, 0x10000+(i%700)*256+4)
	}
	for i, a := range addrs {
		v := uint32(i) * 7
		tab.put(a, v)
		ref[a] = v
		if got, ok := tab.get(a); !ok || got != v {
			t.Fatalf("get(%#x) = %d, %v after put %d", a, got, ok, v)
		}
	}
	for _, a := range []uint32{8, 0x10000 + 3, emptyAddr - 7} {
		if _, ok := tab.get(a); ok {
			t.Errorf("get(%#x) finds a word never written", a)
		}
	}
	if got := tab.stores(); !maps.Equal(got, ref) {
		t.Errorf("stores() has %d words, want %d", len(got), len(ref))
	}
	if n := tab.len(); n != len(ref) {
		t.Errorf("len() = %d, want %d", n, len(ref))
	}
	// A table at its load limit takes an overwrite without doubling.
	var full wordTable
	for a := uint32(0); a < 7*wordTableSlots/8; a++ {
		full.put(4*a, a)
	}
	full.put(0, 1)
	if v, _ := full.get(0); v != 1 || len(full.slots) != wordTableSlots {
		t.Errorf("overwrite at the load limit: value %d, %d slots, want 1 and %d", v, len(full.slots), wordTableSlots)
	}
}
