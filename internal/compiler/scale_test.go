package compiler

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"regvirt/internal/isa"
)

// selfLoopsSrc is a kernel of n back-to-back self-loops: n loop headers
// over n+2 blocks.
func selfLoopsSrc(n int) string {
	var b strings.Builder
	b.WriteString(".kernel loops\n.reg 2\n    movi r1, 1\n    isetp.lt p0, r1, r1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "l%d:\n@p0 bra l%d\n", i, i)
	}
	b.WriteString("    exit\n")
	return b.String()
}

// wideRegionSrc is a kernel whose one conditional branch skips a chain
// of n blocks, so its divergent region has n members; every chain block
// reads r2 and leaves it dead, so the release plan asks SiblingSafe
// about each of them.
func wideRegionSrc(n int) string {
	var b strings.Builder
	b.WriteString(".kernel wide\n.reg 4\n    movi r1, 1\n    isetp.lt p0, r1, r1\n@p0 bra done\n    bra c0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "c%d:\n    movi r2, %d\n    iadd r3, r2, r2\n    bra c%d\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "c%d:\ndone:\n    st.global [r1+0], r3\n    exit\n", n)
	return b.String()
}

// TestFrontEndMemoryLinear compiles kernels shaped to expose a pass
// whose memory grows with the square of the kernel — thousands of
// loops, and one divergent region of thousands of blocks — at two
// sizes. Every job compiles its kernel, so such a pass would let one
// submit of under 1 MiB ask for gigabytes. Doubling the kernel must
// at most double the bytes Compile allocates, with slack, and no size
// may exceed a fixed budget per instruction.
func TestFrontEndMemoryLinear(t *testing.T) {
	const (
		n             = 1000
		bytesPerInstr = 4096
		growth        = 2.5
	)
	for _, c := range []struct {
		name string
		src  func(int) string
	}{
		{"self-loops", selfLoopsSrc},
		{"one wide region", wideRegionSrc},
	} {
		var bytes [2]uint64
		for i, size := range []int{n, 2 * n} {
			p, err := isa.Parse(c.src(size))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = Compile(p, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			bytes[i] = after.TotalAlloc - before.TotalAlloc
			perInstr := bytes[i] / uint64(len(p.Instrs))
			t.Logf("%s x%d: %d instructions, %d bytes allocated, %d per instruction", c.name, size, len(p.Instrs), bytes[i], perInstr)
			if perInstr > bytesPerInstr {
				t.Errorf("%s x%d: Compile allocated %d bytes per instruction, budget %d", c.name, size, perInstr, bytesPerInstr)
			}
		}
		if float64(bytes[1]) > growth*float64(bytes[0]) {
			t.Errorf("%s: doubling the kernel took Compile from %d to %d bytes allocated, more than %.1fx",
				c.name, bytes[0], bytes[1], growth)
		}
	}
}
