package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, strictly advancing time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func testTracer(service string) *Tracer {
	clk := newFakeClock()
	return NewTracer(service, WithDeterministicIDs(1), WithClock(clk.now))
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "anything")
	if sp != nil {
		t.Fatalf("nil tracer returned a non-nil span")
	}
	// All span methods must be safe on nil.
	sp.SetAttr("k", "v")
	sp.SetTenant("t")
	sp.SetJob("j")
	sp.SetError(fmt.Errorf("boom"))
	sp.End()
	if _, ok := SpanContextFrom(ctx); ok {
		t.Fatalf("nil tracer injected a span context")
	}
	if got := tr.Trace("deadbeef"); got != nil {
		t.Fatalf("nil tracer returned spans: %v", got)
	}
}

func TestSpanParentLinksAndTraceRetrieval(t *testing.T) {
	tr := testTracer("shard-a")
	ctx, root := tr.Start(context.Background(), "submit")
	root.SetTenant("acme")
	ctx2, child := tr.Start(ctx, "sim.run")
	child.SetJob("abc123")
	_ = ctx2
	child.End()
	root.End()

	traceID := root.Context().TraceID
	spans := tr.Trace(traceID)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootRec, childRec *SpanRecord
	for i := range spans {
		switch spans[i].Name {
		case "submit":
			rootRec = &spans[i]
		case "sim.run":
			childRec = &spans[i]
		}
	}
	if rootRec == nil || childRec == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if rootRec.Parent != "" {
		t.Fatalf("root has parent %q", rootRec.Parent)
	}
	if childRec.Parent != rootRec.SpanID {
		t.Fatalf("child parent %q, want %q", childRec.Parent, rootRec.SpanID)
	}
	if childRec.TraceID != traceID {
		t.Fatalf("child in trace %q, want %q", childRec.TraceID, traceID)
	}
	if rootRec.Tenant != "acme" || childRec.JobID != "abc123" {
		t.Fatalf("identity fields lost: %+v %+v", rootRec, childRec)
	}
	if childRec.DurNS < 0 || rootRec.DurNS < 0 {
		t.Fatalf("negative durations")
	}
	// Only the canonical form of a minted ID names a trace, and the
	// all-zero ID of an unfilled ring slot names none.
	for _, bad := range []string{traceID + "0", traceID[:16], "00000000000000000000000000000000"} {
		if got := tr.Trace(bad); len(got) != 0 {
			t.Fatalf("Trace(%q) = %d spans, want none", bad, len(got))
		}
	}
	// Tenant propagates via context too.
	ctx3 := WithTenant(context.Background(), "beta")
	_, sp3 := tr.Start(ctx3, "admission")
	sp3.End()
	got := tr.Trace(sp3.Context().TraceID)
	if len(got) != 1 || got[0].Tenant != "beta" {
		t.Fatalf("context tenant not stamped: %+v", got)
	}
}

func TestRingEvictionDropsOldTraces(t *testing.T) {
	tr := NewTracer("s", WithCapacity(16), WithDeterministicIDs(7), WithClock(newFakeClock().now))
	var first string
	for i := 0; i < 40; i++ {
		_, sp := tr.Start(context.Background(), "op")
		if i == 0 {
			first = sp.Context().TraceID
		}
		sp.End()
	}
	if got := tr.Trace(first); len(got) != 0 {
		t.Fatalf("evicted trace still retrievable: %v", got)
	}
	// The most recent span must still be there.
	_, sp := tr.Start(context.Background(), "op")
	sp.End()
	if got := tr.Trace(sp.Context().TraceID); len(got) != 1 {
		t.Fatalf("fresh span not retained, got %d", len(got))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr := testTracer("router")
	ctx, sp := tr.Start(context.Background(), "route")
	h := http.Header{}
	InjectHTTP(ctx, h)
	v := h.Get(TraceHeader)
	if v == "" {
		t.Fatalf("no header injected")
	}
	sc, ok := ParseTraceHeader(v)
	if !ok {
		t.Fatalf("own header %q does not parse", v)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip changed context: %+v vs %+v", sc, sp.Context())
	}
	// Extract into a fresh context and verify a child joins the trace.
	ctx2 := ExtractHTTP(context.Background(), h)
	_, child := tr.Start(ctx2, "remote")
	child.End()
	recs := tr.Trace(sc.TraceID)
	if len(recs) != 1 || recs[0].Parent != sc.SpanID {
		t.Fatalf("remote child not linked: %+v", recs)
	}

	const tid, sid = "0123456789abcdef0123456789abcdef", "0123456789abcdef"
	if sc, ok := ParseTraceHeader(tid + "/" + sid); !ok || sc.TraceID != tid || sc.SpanID != sid {
		t.Fatalf("well-formed header rejected: %+v %v", sc, ok)
	}
	for _, bad := range []string{
		"", "zz/11", "abc", "abc/", "/def", "ABC/def", "abc/DEF g", "deadbeef/beef",
		tid[1:] + "/" + sid, tid + "/" + sid[1:], // short
		tid + "0/" + sid, tid + "/" + sid + "0", // long
		"0123456789ABCDEF0123456789abcdef/" + sid, tid + "/0123456789ABCDEF", // upper case
		"00000000000000000000000000000000/" + sid, tid + "/0000000000000000", // all zeros
		tid + "/" + sid + "/" + sid,
	} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("malformed header %q accepted", bad)
		}
	}
}

func TestHistogramsPerSpanName(t *testing.T) {
	tr := testTracer("s")
	for i := 0; i < 5; i++ {
		_, sp := tr.Start(context.Background(), "queue.wait")
		sp.End()
	}
	hs := tr.Histograms()
	h, ok := hs["queue.wait"]
	if !ok {
		t.Fatalf("no histogram for span name: %v", hs)
	}
	if h.Count != 5 {
		t.Fatalf("histogram count %d, want 5", h.Count)
	}
	if h.Sum <= 0 {
		t.Fatalf("histogram sum %v, want > 0", h.Sum)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer("s", WithCapacity(64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := tr.Start(context.Background(), "op")
				_, child := tr.Start(ctx, "child")
				child.SetAttr("i", "x")
				child.End()
				sp.End()
				tr.Trace(sp.Context().TraceID)
				tr.Histograms()
			}
		}()
	}
	wg.Wait()
}

// TestAttrsEncodeLikeAMap: span attributes encode byte for byte as the
// map[string]string they replaced (sorted keys, the same escaping,
// indented alike inside a record), a repeated key keeps its last value,
// and they decode back from that form.
func TestAttrsEncodeLikeAMap(t *testing.T) {
	for _, m := range []map[string]string{
		{"outcome": "miss"},
		{"shard": "s1", "hit": "true", "peer": "a<&>b", "": "empty key", "ü": "line sep \"q\"", "Z": "upper"},
	} {
		sp := &Span{}
		for k, v := range m {
			sp.SetAttr(k, "overwritten")
			sp.SetAttr(k, v)
		}
		for k, v := range m {
			if got := sp.rec.attrs.Get(k); got != v {
				t.Fatalf("Get(%q) = %q, want the last value set, %q", k, got, v)
			}
		}
		got, err := json.MarshalIndent(SpanRecord{Name: "x", Attrs: sp.rec.attrs}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.MarshalIndent(struct {
			TraceID string            `json:"trace_id"`
			SpanID  string            `json:"span_id"`
			Name    string            `json:"name"`
			StartNS int64             `json:"start_unix_ns"`
			DurNS   int64             `json:"dur_ns"`
			Attrs   map[string]string `json:"attrs,omitempty"`
		}{Name: "x", Attrs: m}, "", "  ")
		if string(got) != string(want) {
			t.Fatalf("attrs encode as\n%s\nwant\n%s", got, want)
		}
		var back SpanRecord
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		for k, v := range m {
			if back.Attrs.Get(k) != v {
				t.Fatalf("decoded %q = %q, want %q", k, back.Attrs.Get(k), v)
			}
		}
	}
}
