//go:build !race

package obs

import (
	"context"
	"fmt"
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

// liveHeap is the heap in use after two collections: a first one at
// a test's start leaves tens of KiB that only the second frees, which
// would read as memory the tracer returned.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTracerHeap bounds what a tracer at the default capacity holds
// once its ring has wrapped three times over root spans that each carry
// one attribute and a 64-digit job ID, which is not a job key and so
// goes to the intern table: the ring's slots (at most 80 bytes each)
// and the few strings they share, 641 KiB measured. The budget fails a
// ring of 136-byte entries that keep their attribute slices, which
// holds 1.32 MiB, and one of slots 8 bytes wider.
func TestTracerHeap(t *testing.T) {
	if size := unsafe.Sizeof(spanSlot{}); size > 80 {
		t.Errorf("ring slot is %d bytes, want at most 80", size)
	}
	const budget = 700 << 10
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

// TestTracerHeapBounded fills a default tracer's ring three times over
// with spans that share no string: each has its own tenant, error and
// non-key job ID. Once the ring has wrapped, the intern table holds
// exactly the strings the live slots name, each counted once per slot
// field that holds it, so the ring bounds the table; and the tracer
// holds less than the 1,600 KiB TestTracerHeap allowed when the ring
// kept 136-byte entries and their strings (1.44 MiB measured here on
// that ring, 1.41 MiB on this one).
func TestTracerHeapBounded(t *testing.T) {
	const budget = 1600 << 10
	before := liveHeap()
	tr := NewTracer("heap")
	for i := 0; i < 3*defaultSpanCapacity; i++ {
		_, sp := tr.Start(WithTenant(context.Background(), fmt.Sprintf("tenant-%d", i)), "op")
		sp.SetJob(fmt.Sprintf("job-%d", i))
		sp.SetError(fmt.Errorf("error %d", i))
		sp.End()
	}
	live := int64(liveHeap()) - int64(before)
	if live > budget {
		t.Errorf("tracer holds %d bytes after %d spans, want at most %d", live, 3*defaultSpanCapacity, budget)
	} else {
		t.Logf("tracer holds %d bytes after %d spans", live, 3*defaultSpanCapacity)
	}

	st := &tr.strs
	held := make([]uint32, len(st.ents))
	for i := range tr.ring {
		sl := &tr.ring[i]
		for _, x := range [...]uint32{sl.name, sl.attrs, sl.err, sl.jobID} {
			held[x]++
		}
	}
	named := 0
	for i := 1; i < len(st.ents); i++ {
		if got := st.ents[i].refs; got != held[i] {
			t.Fatalf("entry %d (%q) counts %d holders, the ring has %d", i, st.at(uint32(i)), got, held[i])
		}
		if held[i] > 0 {
			named++
		}
	}
	cells := 0
	for _, x := range st.cells {
		if x != 0 {
			cells++
			if st.ents[x].refs == 0 {
				t.Fatalf("hash set holds freed entry %d", x)
			}
		}
	}
	// Each slot names its own tenant, error and job ID, and all share "op".
	if want := 3*defaultSpanCapacity + 1; named != want || st.live != want || cells != want {
		t.Fatalf("table holds %d live entries (%d counted, %d in the hash set), want %d", named, st.live, cells, want)
	}
	last := tr.ring[(tr.next+tr.cap-1)%tr.cap]
	sp := tr.unpack(&last, "")
	n := 3*defaultSpanCapacity - 1
	if sp.Tenant != fmt.Sprintf("tenant-%d", n) || sp.JobID != fmt.Sprintf("job-%d", n) || sp.Error != fmt.Sprintf("error %d", n) {
		t.Fatalf("last span reads back as %+v", sp)
	}
	runtime.KeepAlive(tr)
}
