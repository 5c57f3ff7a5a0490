//go:build !race

package obs

import (
	"context"
	"testing"
)

// TestSpanAllocations pins what a span costs, Start to End: the span,
// its ID, the context value holding it and the attribute slice, plus
// the trace ID and the trace's index slice for a root. The race
// detector allocates on its own, hence the build tag.
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
		{"child", ctx, 4},
		{"remote-child", remote, 4},
		{"root", context.Background(), 6},
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
