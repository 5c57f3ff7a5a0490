package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// digestStoresReference is DigestStores as it was first written: a
// reflective sort of the addresses and one hash write per pair. It is
// the oracle the packed, sorted digest must match byte for byte,
// since every pinned and persisted result carries a digest.
func digestStoresReference(stores map[uint32]uint32) string {
	addrs := make([]uint32, 0, len(stores))
	for a := range stores {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := sha256.New()
	var buf [8]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(buf[:4], a)
		binary.LittleEndian.PutUint32(buf[4:], stores[a])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDigestStoresMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]map[uint32]uint32{
		"nil":    nil,
		"empty":  {},
		"single": {0x0300_0000: 7},
		"max":    {0xffff_ffff: 8},
		"top":    {0xffff_fffc: 1, 0x8000_0000: 2, 0x7fff_fffc: 3, 0: 4},
		// Addresses that differ in their top byte only: one radix pass.
		"topbyte":  {0xff12_3456: 1, 0x0012_3456: 2, 0x8012_3456: 3, 0x7f12_3456: 4, 0x0112_3456: 5},
		"extremes": {0xffff_ffff: 1, 0: 2, 0xff00_0000: 3, 0x00ff_ffff: 4},
	}
	for i := 0; i < 200; i++ {
		m := map[uint32]uint32{}
		n := rng.Intn(5000)
		for len(m) < n {
			var a uint32
			switch i % 4 {
			case 0: // word-aligned, one region, as kernels store
				a = 0x0300_0000 + uint32(rng.Intn(1<<16))*4
			case 1: // at or above 2^31
				a = 1<<31 | rng.Uint32()
			case 2: // two regions 2^31 apart
				a = uint32(rng.Intn(1<<14)) | uint32(rng.Intn(2))<<31
			default:
				a = rng.Uint32()
			}
			m[a] = rng.Uint32()
		}
		cases[fmt.Sprintf("random%d", i)] = m
	}
	for name, m := range cases {
		if got, want := DigestStores(m), digestStoresReference(m); got != want {
			t.Errorf("%s (%d entries): digest %s, reference %s", name, len(m), got, want)
		}
	}
}

var digestSink string

// BenchmarkDigestStores digests 1,500 words stored into one region, the
// size of a generated kernel's output at the benchmark's cold geometry.
func BenchmarkDigestStores(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stores := make(map[uint32]uint32, 1500)
	for i := uint32(0); i < 1500; i++ {
		stores[0x0300_0000+4*i] = rng.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = DigestStores(stores)
	}
}
