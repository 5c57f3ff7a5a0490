//go:build !race

package obs

import (
	"context"
	"runtime"
	"testing"
	"unsafe"
)

// TestSpanAllocations pins what a span costs, Start to End: the span
// (its IDs are bytes inside it), the context value holding it and the
// attribute slice, for a child and for a root alike. The race detector
// allocates on its own, hence the build tag.
func TestSpanAllocations(t *testing.T) {
	tr := NewTracer("alloc")
	ctx, parent := tr.Start(context.Background(), "parent")
	defer parent.End()
	remote := ContextWithSpan(context.Background(),
		SpanContext{TraceID: "0123456789abcdef0123456789abcdef", SpanID: "0123456789abcdef"})
	for _, tc := range []struct {
		name string
		ctx  context.Context
		max  float64
	}{
		{"child", ctx, 3},
		{"remote-child", remote, 3},
		{"root", context.Background(), 3},
	} {
		got := testing.AllocsPerRun(2000, func() {
			_, sp := tr.Start(tc.ctx, "span")
			sp.SetAttr("outcome", "miss")
			sp.End()
		})
		if got > tc.max {
			t.Errorf("%s span with one attribute: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestTracerHeap bounds what a tracer at the default capacity holds
// once its ring has wrapped three times over root spans that each carry
// one attribute and a job ID: the ring's entries (at most 136 bytes
// each) and the attribute slices they keep, 1.28 MiB measured. The
// budget fails a tracer that keeps 168-byte records with hex-string IDs
// beside a per-trace index, which holds 2.72 MiB.
func TestTracerHeap(t *testing.T) {
	if size := unsafe.Sizeof(spanEntry{}); size > 136 {
		t.Errorf("ring entry is %d bytes, want at most 136", size)
	}
	const budget = 1600 << 10
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const job = "3f1c2a9b8d7e6f5041328a9b7c6d5e4f3a2b1c0d9e8f7a6b5c4d3e2f1a0b9c8d"
	before := liveHeap()
	tr := NewTracer("heap")
	for i := 0; i < 3*defaultSpanCapacity; i++ {
		_, sp := tr.Start(context.Background(), "op")
		sp.SetJob(job)
		sp.SetAttr("outcome", "miss")
		sp.End()
	}
	live := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(tr)
	if live > budget {
		t.Errorf("tracer holds %d bytes after %d spans, want at most %d", live, 3*defaultSpanCapacity, budget)
	} else {
		t.Logf("tracer holds %d bytes after %d spans", live, 3*defaultSpanCapacity)
	}
}
