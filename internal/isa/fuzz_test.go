package isa

import (
	"reflect"
	"testing"
)

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
	f.Add(metaKernel)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		// Anything that parses must validate or fail cleanly, print, and
		// re-parse to the same instructions: the text is a kernel's only
		// form outside memory.
		if err := p.Validate(); err != nil {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, p)
		}
		if !reflect.DeepEqual(q.Instrs, p.Instrs) {
			t.Fatalf("print/parse changed the program:\n%s\n%s", p, q)
		}
	})
}
