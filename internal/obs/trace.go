// Package obs is the observability layer threaded through every tier
// of the service: request tracing (trace/span IDs propagated via the
// X-Regvd-Trace header and context.Context, recorded into a bounded
// in-process ring buffer), Prometheus text exposition with real
// latency histograms, Chrome trace_event export, and structured
// logging helpers that stamp every line with trace/tenant/job context.
//
// The package is deliberately dependency-free (stdlib only) and knows
// nothing about jobs or simulations: spans are generic named intervals
// with string attributes. Every entry point is nil-safe — a nil
// *Tracer hands back no-op spans — so instrumented code pays one
// branch, not a build tag, when observability is off.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// TraceHeader carries trace context across HTTP hops. The value is
// "<trace-id>/<span-id>": the trace ID names the whole request tree,
// the span ID is the caller's span (the parent of whatever the callee
// records). Both are lowercase hex. The name is spelled in the
// canonical form net/http puts on the wire, so Header.Get and Set find
// it without building a canonical key first.
const TraceHeader = "X-Regvd-Trace"

// SpanContext is the propagated identity of a point in a trace.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// HeaderValue encodes the context for the TraceHeader.
func (sc SpanContext) HeaderValue() string { return sc.TraceID + "/" + sc.SpanID }

// Valid reports whether both IDs are present and well-formed.
func (sc SpanContext) Valid() bool { return validID(sc.TraceID, 64) && validID(sc.SpanID, 32) }

func validID(s string, max int) bool {
	if len(s) == 0 || len(s) > max {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseTraceHeader decodes a TraceHeader value. Malformed values are
// rejected (ok=false) rather than propagated: a garbage header must
// not become a garbage metrics key downstream.
func ParseTraceHeader(v string) (SpanContext, bool) {
	for i := 0; i < len(v); i++ {
		if v[i] == '/' {
			sc := SpanContext{TraceID: v[:i], SpanID: v[i+1:]}
			if sc.Valid() {
				return sc, true
			}
			return SpanContext{}, false
		}
	}
	return SpanContext{}, false
}

// Context keys. Tenant and job ID ride the context independently of
// the span so the log handler can stamp them even on lines logged
// outside any span.
type (
	spanCtxKey struct{}
	tenantKey  struct{}
	jobIDKey   struct{}
	shardKey   struct{}
)

// SpanContextFrom returns the current span context, if any. The
// context holds either a local span (a *Span, which Start installs) or
// a remote parent (a SpanContext, which ContextWithSpan installs).
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	switch v := ctx.Value(spanCtxKey{}).(type) {
	case *Span:
		return v.Context(), true
	case SpanContext:
		return v, true
	}
	return SpanContext{}, false
}

// ContextWithSpan installs a remote parent (e.g. parsed from an
// incoming TraceHeader) so spans started under ctx join its trace. An
// invalid context installs nothing.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// WithTenant / TenantFrom thread the tenant for spans and log lines.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// WithJobID / JobIDFrom thread the content-addressed job ID.
func WithJobID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, jobIDKey{}, id)
}

func JobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// WithShard / ShardFrom thread the shard name (router-side hops).
func WithShard(ctx context.Context, shard string) context.Context {
	if shard == "" {
		return ctx
	}
	return context.WithValue(ctx, shardKey{}, shard)
}

func ShardFrom(ctx context.Context) string {
	s, _ := ctx.Value(shardKey{}).(string)
	return s
}

// ExtractHTTP parses an incoming request's TraceHeader into ctx; with
// no (or a malformed) header, ctx is returned unchanged and any span
// started under it mints a fresh trace.
func ExtractHTTP(ctx context.Context, h http.Header) context.Context {
	sc, ok := ParseTraceHeader(h.Get(TraceHeader))
	if !ok {
		return ctx
	}
	return ContextWithSpan(ctx, sc)
}

// InjectHTTP stamps the current span context onto an outgoing
// request's headers. No span in ctx means no header: the callee mints
// its own trace.
func InjectHTTP(ctx context.Context, h http.Header) {
	if sc, ok := SpanContextFrom(ctx); ok {
		h.Set(TraceHeader, sc.HeaderValue())
	}
}

// SpanRecord is one completed span as stored in the ring buffer and
// served by GET /v1/trace/{id}.
type SpanRecord struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	// Service is the recording tier: the tracer's construction-time
	// name ("router", or the shard name).
	Service string `json:"service,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   Attrs  `json:"attrs,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Attr is one span attribute.
type Attr struct {
	Key, Value string
}

// Attrs holds a span's attributes in the order they were set; a key
// set twice keeps its last value. A span rarely carries more than two,
// so a slice costs one allocation where a map cost two. It encodes as a
// JSON object with sorted keys, byte for byte what a map[string]string
// encodes to.
type Attrs []Attr

// Get returns the value last set for key k ("" when unset).
func (a Attrs) Get(k string) string {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].Key == k {
			return a[i].Value
		}
	}
	return ""
}

// MarshalJSON encodes the attributes as the map they stand for, so the
// bytes are the map's by construction. Only trace exports pay for it.
func (a Attrs) MarshalJSON() ([]byte, error) {
	m := make(map[string]string, len(a))
	for _, kv := range a {
		m[kv.Key] = kv.Value
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes a JSON object of string values (the form
// MarshalJSON writes; another shard's trace arrives this way).
func (a *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	*a = out
	return nil
}

// Defaults for Tracer bounds.
const (
	// defaultSpanCapacity is the ring size: at ~300 bytes/span this
	// bounds the tracer near 2.5 MB however hot the service runs.
	defaultSpanCapacity = 8192
	// maxHistNames bounds the per-span-name duration histogram table —
	// span names are static strings in this codebase, so hitting the
	// bound means an instrumentation bug, not traffic.
	maxHistNames = 64
)

// Tracer records completed spans into a fixed-size ring buffer indexed
// by trace ID, and accumulates a duration histogram per span name for
// the Prometheus exposition. All methods are safe for concurrent use
// and nil-safe: a nil *Tracer starts no-op spans.
type Tracer struct {
	service string
	cap     int
	now     func() time.Time
	newID   func(bytes int) string

	mu      sync.Mutex
	ring    []SpanRecord
	next    int
	filled  bool
	byTrace map[string][]int
	hists   map[string]*Histogram
	dropped uint64 // spans not indexed because the histogram table is full
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithCapacity sets the span ring size (minimum 16).
func WithCapacity(n int) TracerOption {
	return func(t *Tracer) {
		if n < 16 {
			n = 16
		}
		t.cap = n
	}
}

// WithClock overrides the time source (tests and golden files).
func WithClock(now func() time.Time) TracerOption {
	return func(t *Tracer) { t.now = now }
}

// WithDeterministicIDs replaces the random ID source with a
// seeded counter, so tests (and the golden Chrome trace) get stable
// IDs run over run.
func WithDeterministicIDs(seed uint64) TracerOption {
	return func(t *Tracer) {
		var mu sync.Mutex
		ctr := seed
		t.newID = func(bytes int) string {
			mu.Lock()
			ctr++
			v := ctr
			mu.Unlock()
			b := make([]byte, bytes)
			binary.BigEndian.PutUint64(b[bytes-8:], v)
			return hex.EncodeToString(b)
		}
	}
}

// NewTracer builds a tracer for one service tier. The service name
// lands on every span ("router", the shard name, "regvsim").
func NewTracer(service string, opts ...TracerOption) *Tracer {
	t := &Tracer{
		service: service,
		cap:     defaultSpanCapacity,
		now:     time.Now,
		newID:   randomID,
	}
	for _, o := range opts {
		o(t)
	}
	t.ring = make([]SpanRecord, t.cap)
	t.byTrace = make(map[string][]int)
	t.hists = make(map[string]*Histogram)
	return t
}

// randomID returns bytes (at most 16) random bytes as lowercase hex,
// allocating only the string. The source is math/rand/v2's, which the
// runtime seeds from the operating system per process: IDs must be
// unique, not secret.
func randomID(bytes int) string {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(b[8:], rand.Uint64())
	var h [32]byte
	hex.Encode(h[:], b[:])
	return string(h[:2*bytes])
}

// Service returns the tracer's tier name ("" for a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Span is a live (unended) span. The zero of *Span (nil) is a valid
// no-op: every method checks, so call sites never branch on tracer
// presence.
type Span struct {
	t     *Tracer
	start time.Time

	mu    sync.Mutex
	rec   SpanRecord
	ended bool
}

// Start begins a span under ctx's current span (same trace, parent
// link) or a fresh trace when ctx carries none. The returned context
// carries the new span, so child calls nest and outgoing HTTP hops
// propagate it via InjectHTTP. End must be called to record the span;
// an unended span is simply never recorded (no leak — the handle is
// garbage).
//
// A child span costs three allocations: the span, its ID string and the
// context value, which holds the *Span itself. A root span adds its
// trace ID.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := SpanContextFrom(ctx)
	traceID := parent.TraceID
	if traceID == "" {
		traceID = t.newID(16)
	}
	sp := &Span{
		t:     t,
		start: t.now(),
		rec: SpanRecord{
			TraceID: traceID,
			SpanID:  t.newID(8),
			Parent:  parent.SpanID,
			Name:    name,
			Service: t.service,
			Tenant:  TenantFrom(ctx),
			JobID:   JobIDFrom(ctx),
		},
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// Context returns the span's propagation identity. TraceID and SpanID
// are fixed at Start, so reading them needs no lock.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// SetAttr attaches a string attribute, overriding an earlier value of
// the same key.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Attrs = append(s.rec.Attrs, Attr{k, v})
	s.mu.Unlock()
}

// SetTenant / SetJob fill identity fields learned after Start.
func (s *Span) SetTenant(tenant string) {
	if s == nil || tenant == "" {
		return
	}
	s.mu.Lock()
	s.rec.Tenant = tenant
	s.mu.Unlock()
}

func (s *Span) SetJob(id string) {
	if s == nil || id == "" {
		return
	}
	s.mu.Lock()
	s.rec.JobID = id
	s.mu.Unlock()
}

// SetError marks the span failed. nil is a no-op so call sites can
// pass their error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.rec.Error = err.Error()
	s.mu.Unlock()
}

// End records the span into the tracer. Safe to call at most once;
// later calls are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := s.rec
	s.mu.Unlock()
	rec.StartNS = s.start.UnixNano()
	d := s.t.now().Sub(s.start)
	if d < 0 {
		d = 0
	}
	rec.DurNS = int64(d)
	s.t.record(rec)
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	slot := t.next
	if t.filled {
		old := t.ring[slot]
		idx := t.byTrace[old.TraceID]
		for i, v := range idx {
			if v == slot {
				idx = append(idx[:i], idx[i+1:]...)
				break
			}
		}
		if len(idx) == 0 {
			delete(t.byTrace, old.TraceID)
		} else {
			t.byTrace[old.TraceID] = idx
		}
	}
	t.ring[slot] = rec
	t.byTrace[rec.TraceID] = append(t.byTrace[rec.TraceID], slot)
	t.next++
	if t.next == t.cap {
		t.next, t.filled = 0, true
	}
	h, ok := t.hists[rec.Name]
	if !ok {
		if len(t.hists) >= maxHistNames {
			t.dropped++
			t.mu.Unlock()
			return
		}
		h = NewHistogram(DefLatencyBuckets...)
		t.hists[rec.Name] = h
	}
	t.mu.Unlock()
	h.Observe(float64(rec.DurNS) / float64(time.Second))
}

// Trace returns the retained spans of one trace, sorted by start time
// then span ID (deterministic for equal timestamps). Spans evicted by
// the ring are simply absent — the caller sees a partial trace, never
// an error.
func (t *Tracer) Trace(id string) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	idx := t.byTrace[id]
	out := make([]SpanRecord, 0, len(idx))
	for _, slot := range idx {
		out = append(out, t.ring[slot])
	}
	t.mu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans by start, then span ID — the canonical order
// Trace, the router's cross-shard stitch, and the Chrome export share.
func SortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Histograms snapshots the per-span-name duration histograms (seconds)
// for the Prometheus exposition, keyed by span name.
func (t *Tracer) Histograms() map[string]HistogramSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.hists))
	hs := make([]*Histogram, 0, len(t.hists))
	for name, h := range t.hists {
		names = append(names, name)
		hs = append(hs, h)
	}
	t.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(names))
	for i, name := range names {
		out[name] = hs[i].Snapshot()
	}
	return out
}
