package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPirEncodeDecodeRoundTrip(t *testing.T) {
	f := func(flags uint64) bool {
		flags &= payloadMask
		word, err := EncodePir(flags)
		if err != nil {
			return false
		}
		op, got, _, ok := DecodeMeta(word)
		return ok && op == OpPir && got == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPirRejectsOversizedPayload(t *testing.T) {
	if _, err := EncodePir(1 << PirPayloadBits); err == nil {
		t.Error("EncodePir accepted a 55-bit payload")
	}
}

func TestPbrEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(PbrMaxRegs)
		regs := make([]RegID, 0, n)
		seen := map[RegID]bool{}
		for len(regs) < n {
			r := RegID(rng.Intn(MaxRegsPerThread))
			if !seen[r] {
				seen[r] = true
				regs = append(regs, r)
			}
		}
		word, err := EncodePbr(regs)
		if err != nil {
			t.Fatalf("EncodePbr(%v): %v", regs, err)
		}
		op, _, got, ok := DecodeMeta(word)
		if !ok || op != OpPbr {
			t.Fatalf("DecodeMeta: op=%v ok=%v", op, ok)
		}
		want := map[RegID]bool{}
		for _, r := range regs {
			want[r] = true
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %v, want set %v", got, regs)
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("decoded unexpected register %v (want %v)", r, regs)
			}
		}
	}
}

func TestPbrLimits(t *testing.T) {
	if _, err := EncodePbr(nil); err == nil {
		t.Error("EncodePbr accepted empty list")
	}
	over := make([]RegID, PbrMaxRegs+1)
	if _, err := EncodePbr(over); err == nil {
		t.Error("EncodePbr accepted 10 registers")
	}
	if _, err := EncodePbr([]RegID{RZ}); err == nil {
		t.Error("EncodePbr accepted rz")
	}
}

func TestMetaOpcodeSplit(t *testing.T) {
	// The 10-bit opcode must survive the 4+6 split for every value.
	for op := uint16(0); op < 1024; op++ {
		w := packMetaWord(op, payloadMask) // all-ones payload must not leak
		if got := metaOpcode10(w); got != op {
			t.Fatalf("opcode %#x round-tripped to %#x", op, got)
		}
		if got := metaPayload(w); got != payloadMask {
			t.Fatalf("payload corrupted for opcode %#x", op)
		}
	}
}

func TestDecodeMetaRejectsOtherWords(t *testing.T) {
	if _, _, _, ok := DecodeMeta(0); ok {
		t.Error("DecodeMeta accepted zero word")
	}
	if _, _, _, ok := DecodeMeta(^uint64(0)); ok {
		t.Error("DecodeMeta accepted all-ones word")
	}
}

func TestPirGroupPackUnpack(t *testing.T) {
	var flags uint64
	want := make([][MaxSrcOperands]bool, PirGroupCount)
	rng := rand.New(rand.NewSource(11))
	for g := 0; g < PirGroupCount; g++ {
		for i := 0; i < MaxSrcOperands; i++ {
			want[g][i] = rng.Intn(2) == 1
		}
		flags = PackPirGroup(flags, g, want[g])
	}
	if _, err := EncodePir(flags); err != nil {
		t.Fatalf("full 18-group payload overflowed: %v", err)
	}
	for g := 0; g < PirGroupCount; g++ {
		if got := PirGroup(flags, g); got != want[g] {
			t.Errorf("group %d = %v, want %v", g, got, want[g])
		}
	}
}
