package isa

import "testing"

// Native fuzz targets: hostile input must never panic. Run with
// `go test -fuzz=FuzzParse ./internal/isa` for deeper exploration; the
// seed corpus runs as part of the normal test suite.

func FuzzParse(f *testing.F) {
	f.Add(sampleKernel)
	f.Add(".kernel k\n exit")
	f.Add("@p0 bra nowhere")
	f.Add(".pir 0xffffffffffffff\n")
	f.Add(".kernel k\n ld.global r1, [r2+999999999999]\n exit")
	f.Add(".kernel k\n iadd r1, r2, c[300]\n exit")
	f.Add("label:\nlabel:\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		// Anything that parses must validate or fail cleanly, print, and
		// re-parse.
		if err := p.Validate(); err != nil {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, p)
		}
		if len(q.Instrs) != len(p.Instrs) {
			t.Fatalf("print/parse changed instruction count %d -> %d", len(p.Instrs), len(q.Instrs))
		}
	})
}

func FuzzDecodeBinary(f *testing.F) {
	p := MustParse(sampleKernel)
	for _, in := range p.Instrs {
		in.TargetLabel = ""
	}
	words, _ := EncodeBinary(p)
	seed := make([]byte, 0, len(words)*8)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			seed = append(seed, byte(w>>(8*i)))
		}
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(data[i*8+b]) << (8 * b)
			}
		}
		// Must not panic; errors are fine. A successful decode must
		// re-encode.
		q, err := DecodeBinary(words)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			return
		}
		if _, err := EncodeBinary(q); err != nil {
			t.Fatalf("decoded program does not re-encode: %v", err)
		}
	})
}
