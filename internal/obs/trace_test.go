package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
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

// TestValidTraceIDDigits: a trace ID is accepted exactly when each of
// its 32 characters is one of 0-9 and a-f and not all are '0'. Every
// byte value is tried in every position.
func TestValidTraceIDDigits(t *testing.T) {
	const base = "0123456789abcdef0123456789abcdef"
	for pos := 0; pos < len(base); pos++ {
		for c := 0; c < 256; c++ {
			id := base[:pos] + string([]byte{byte(c)}) + base[pos+1:]
			want := '0' <= c && c <= '9' || 'a' <= c && c <= 'f'
			if got := ValidTraceID(id); got != want {
				t.Fatalf("ValidTraceID with byte %#x at %d = %v, want %v", c, pos, got, want)
			}
		}
	}
	if ValidTraceID(strings.Repeat("0", 32)) || !ValidTraceID(strings.Repeat("0", 31)+"1") {
		t.Fatal("all-zero rule broken")
	}
}

// BenchmarkDecodeID decodes a header's trace and span IDs, as
// ParseTraceHeader does for every incoming X-Regvd-Trace.
func BenchmarkDecodeID(b *testing.B) {
	const tid, sid = "0123456789abcdef0123456789abcdef", "0123456789abcdef"
	var t traceID
	var s spanID
	for i := 0; i < b.N; i++ {
		if !decodeID(t[:], tid) || !decodeID(s[:], sid) {
			b.Fatal("valid IDs refused")
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

// TestSpanSlotHoldsNoPointers: a ring slot has no field that can hold a
// pointer, so the ring stays noscan.
func TestSpanSlotHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ.Kind())
		case reflect.Array:
			check(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	check("spanSlot", reflect.TypeOf(spanSlot{}))
}

// TestRingRoundTrip: every span Trace returns is, field for field, the
// record of what was set on it: root, child and remote-parent spans; a
// tenant from the context; no, one and three attributes with a key set
// twice; an error; a job key, and job IDs that are not keys; a name
// past the histogram table's bound.
func TestRingRoundTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracer("shard-a", WithDeterministicIDs(1), WithClock(func() time.Time { return now }))
	for i := 0; i < maxHistNames; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("fill-%d", i))
		sp.End()
	}
	const key = "0123456789abcdef0123456789abcdef"
	var want []SpanRecord
	start := func(ctx context.Context, name string) (context.Context, *Span, SpanRecord) {
		now = now.Add(time.Second)
		ctx, sp := tr.Start(ctx, name)
		sc := sp.Context()
		return ctx, sp, SpanRecord{TraceID: sc.TraceID, SpanID: sc.SpanID, Name: name, Service: "shard-a", StartNS: now.UnixNano()}
	}
	end := func(sp *Span, w SpanRecord) {
		now = now.Add(3 * time.Millisecond)
		sp.End()
		w.DurNS = now.UnixNano() - w.StartNS
		want = append(want, w)
	}

	ctx, root, w := start(WithTenant(context.Background(), "acme"), "submit")
	root.SetJob(key)
	w.Tenant, w.JobID = "acme", key

	_, child, wc := start(WithJobID(ctx, "job-0"), "sim.run")
	child.SetAttr("outcome", "miss")
	child.SetError(fmt.Errorf("boom"))
	wc.Parent, wc.Tenant, wc.JobID, wc.Error = w.SpanID, "acme", "job-0", "boom"
	wc.Attrs = Attrs{{"outcome", "miss"}}
	end(child, wc)
	end(root, w)

	remote := SpanContext{TraceID: "fedcba9876543210fedcba9876543210", SpanID: "0011223344556677"}
	_, sp, wr := start(ContextWithSpan(context.Background(), remote), "name-past-the-histogram-table")
	sp.SetAttr("shard", "s1")
	sp.SetAttr("peer", "s2")
	sp.SetAttr("shard", "s3")
	sp.SetJob(strings.ToUpper(key))
	wr.Parent, wr.JobID = remote.SpanID, strings.ToUpper(key)
	wr.Attrs = Attrs{{"shard", "s1"}, {"peer", "s2"}, {"shard", "s3"}}
	end(sp, wr)

	// A second span with the first's tenant and attributes shares their
	// entry; a 32-digit all-zero job ID is not a key.
	_, sp, ws := start(WithTenant(context.Background(), "acme"), "sim.run")
	sp.SetAttr("outcome", "miss")
	sp.SetJob(strings.Repeat("0", 32))
	ws.Tenant, ws.JobID, ws.Attrs = "acme", strings.Repeat("0", 32), Attrs{{"outcome", "miss"}}
	end(sp, ws)

	if _, ok := tr.Histograms()[wr.Name]; ok {
		t.Fatalf("%q has a histogram; the table should be full", wr.Name)
	}
	for _, w := range want {
		var got *SpanRecord
		recs := tr.Trace(w.TraceID)
		for i := range recs {
			if recs[i].SpanID == w.SpanID {
				got = &recs[i]
			}
		}
		if got == nil {
			t.Fatalf("span %s (%s) not in its trace: %+v", w.SpanID, w.Name, recs)
		}
		if !reflect.DeepEqual(*got, w) {
			t.Errorf("span %s reads back as\n%#v\nwant\n%#v", w.Name, *got, w)
		}
	}
}
