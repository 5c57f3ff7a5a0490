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
	"sync/atomic"
	"time"
)

// TraceHeader carries trace context across HTTP hops. The value is
// "<trace-id>/<span-id>": the trace ID names the whole request tree,
// the span ID is the caller's span (the parent of whatever the callee
// records). They are 32 and 16 lowercase hex digits, the widths of W3C
// trace-context, and neither may be all zeros. The name is spelled in
// the canonical form net/http puts on the wire, so Header.Get and Set
// find it without building a canonical key first.
const TraceHeader = "X-Regvd-Trace"

// traceID and spanID are a trace's and a span's identity as the tracer
// mints and keeps them: bytes, hex-encoded only where they leave the
// process (the TraceHeader, SpanRecord, log lines). The zero value means
// none: a root span's parent is zero, and no valid context carries one.
type (
	traceID [16]byte
	spanID  [8]byte
)

// traceHex and spanHex are the IDs' widths on the wire.
const traceHex, spanHex = 2 * len(traceID{}), 2 * len(spanID{})

// decodeID fills id from s, which must be exactly 2·len(id) lowercase
// hex digits and not all zeros; it reports whether s was.
func decodeID(id []byte, s string) bool {
	if len(s) != 2*len(id) {
		return false
	}
	var nonzero byte
	for i := range id {
		hi, lo := hexVal[s[2*i]], hexVal[s[2*i+1]]
		if hi > 0xf || lo > 0xf {
			return false
		}
		id[i] = hi<<4 | lo
		nonzero |= id[i]
	}
	return nonzero != 0
}

// hexVal maps a lowercase hex digit to its value and every other byte
// to 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
	}
	return t
}()

// ValidTraceID reports whether id is a trace ID this package mints and
// accepts: 32 lowercase hex digits, not all zeros.
func ValidTraceID(id string) bool {
	var t traceID
	return decodeID(t[:], id)
}

// SpanContext is the propagated identity of a point in a trace, in its
// wire form.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// HeaderValue encodes the context for the TraceHeader.
func (sc SpanContext) HeaderValue() string { return sc.TraceID + "/" + sc.SpanID }

// Valid reports whether both IDs are well-formed: 32 and 16 lowercase
// hex digits, neither all zeros.
func (sc SpanContext) Valid() bool {
	var s spanID
	return ValidTraceID(sc.TraceID) && decodeID(s[:], sc.SpanID)
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

// AppendHeaderValue appends to b the TraceHeader value of the span
// context ctx carries, nothing when it carries none. InjectHTTP stamps
// it on a request; the cluster router puts it in the frames it
// forwards to shards.
func AppendHeaderValue(b []byte, ctx context.Context) []byte {
	switch v := ctx.Value(spanCtxKey{}).(type) {
	case *Span:
		return v.appendHeaderValue(b)
	case SpanContext:
		return append(append(append(b, v.TraceID...), '/'), v.SpanID...)
	}
	return b
}

// InjectHTTP stamps the current span context onto an outgoing
// request's headers. No span in ctx means no header: the callee mints
// its own trace.
func InjectHTTP(ctx context.Context, h http.Header) {
	var b [traceHex + 1 + spanHex]byte
	if v := AppendHeaderValue(b[:0], ctx); len(v) > 0 {
		h.Set(TraceHeader, string(v))
	}
}

// SpanRecord is one completed span as GET /v1/trace/{id} serves it.
// The ring keeps a compact spanSlot; Trace renders records from it.
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
	// defaultSpanCapacity is the ring size. The ring is allocated
	// whole at NewTracer, 8,192 slots of 80 bytes (640 KiB) that hold no
	// pointers; the strings they name live once each in the tracer's
	// intern table, which the ring bounds. A tracer whose ring has
	// wrapped over spans that share their strings holds little more
	// than the ring however hot the service runs (TestTracerHeap).
	defaultSpanCapacity = 8192
	// maxHistNames bounds the per-span-name duration histogram table —
	// span names are static strings in this codebase, so hitting the
	// bound means an instrumentation bug, not traffic.
	maxHistNames = 64
)

// Tracer records completed spans into a fixed-size ring buffer and
// accumulates a duration histogram per span name for the Prometheus
// exposition. All methods are safe for concurrent use and nil-safe: a
// nil *Tracer starts no-op spans.
type Tracer struct {
	service string
	cap     int
	now     func() time.Time
	newID   func(id []byte)

	mu      sync.Mutex
	ring    []spanSlot
	next    int
	strs    strtab
	hists   map[string]*Histogram
	dropped uint64 // spans left out of the histograms because their table is full
}

// spanEntry is a live span's record: a span without its tier name,
// which is the tracer's, and with its IDs as bytes. record packs it
// into a ring slot.
type spanEntry struct {
	trace          traceID
	span, parent   spanID // parent is zero for a root
	name           string
	tenant, jobID  string
	startNS, durNS int64
	attrs          Attrs
	err            string
}

// spanSlot is one ring slot: a completed span in 80 bytes that hold no
// pointer, so the ring is allocated noscan and the collector never
// walks it. Its strings are indexes into the tracer's intern table (0
// is ""): the name, the tenant and attributes as one entry, the error,
// and a job ID unless it is a job key (32 lowercase hex digits, the
// form jobs.Job.Key returns), which is kept as its 16 bytes instead.
type spanSlot struct {
	trace                   traceID
	span, parent            spanID
	startNS, durNS          int64
	jobKey                  [16]byte // zero when the job ID is not a key
	name, attrs, err, jobID uint32
}

// pack fills sl from rec, interning its strings.
func (t *Tracer) pack(sl *spanSlot, rec *spanEntry) {
	*sl = spanSlot{
		trace: rec.trace, span: rec.span, parent: rec.parent,
		startNS: rec.startNS, durNS: rec.durNS,
		name:  t.strs.intern(rec.name),
		attrs: t.strs.internAttrs(rec.tenant, rec.attrs),
		err:   t.strs.intern(rec.err),
	}
	if !decodeID(sl.jobKey[:], rec.jobID) {
		sl.jobKey = [16]byte{}
		sl.jobID = t.strs.intern(rec.jobID)
	}
}

// unpack renders sl as the exported SpanRecord, exactly as its span
// was recorded. trace is the slot's trace ID already encoded; the span
// and parent IDs share one allocation, and the tenant and attributes
// another.
func (t *Tracer) unpack(sl *spanSlot, trace string) SpanRecord {
	var b [2 * spanHex]byte
	hex.Encode(b[:spanHex], sl.span[:])
	hex.Encode(b[spanHex:], sl.parent[:])
	ids := string(b[:])
	r := SpanRecord{
		TraceID: trace,
		SpanID:  ids[:spanHex],
		Name:    t.strs.str(sl.name),
		Service: t.service,
		StartNS: sl.startNS,
		DurNS:   sl.durNS,
		Error:   t.strs.str(sl.err),
	}
	r.Tenant, r.Attrs = decodeAttrs(t.strs.str(sl.attrs))
	if sl.parent != (spanID{}) {
		r.Parent = ids[spanHex:]
	}
	if sl.jobKey != ([16]byte{}) {
		r.JobID = hex.EncodeToString(sl.jobKey[:])
	} else {
		r.JobID = t.strs.str(sl.jobID)
	}
	return r
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

// WithDeterministicIDs replaces the random ID source with a seeded
// counter written big-endian into each ID's low 8 bytes, so tests (and
// the golden Chrome trace) get stable IDs run over run.
func WithDeterministicIDs(seed uint64) TracerOption {
	return func(t *Tracer) {
		var ctr atomic.Uint64
		ctr.Store(seed)
		t.newID = func(id []byte) {
			binary.BigEndian.PutUint64(id[len(id)-8:], ctr.Add(1))
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
	t.ring = make([]spanSlot, t.cap)
	t.strs = newStrtab()
	t.hists = make(map[string]*Histogram)
	return t
}

// randomID fills id (a multiple of 8 bytes) with random bytes, drawing
// again in the 2^-64 case that they are all zero, which means none. The
// source is math/rand/v2's, which the runtime seeds from the operating
// system per process: IDs must be unique, not secret.
func randomID(id []byte) {
	for {
		var nonzero uint64
		for i := 0; i < len(id); i += 8 {
			v := rand.Uint64()
			binary.LittleEndian.PutUint64(id[i:], v)
			nonzero |= v
		}
		if nonzero != 0 {
			return
		}
	}
}

// Span is a live (unended) span. The zero of *Span (nil) is a valid
// no-op: every method checks, so call sites never branch on tracer
// presence.
type Span struct {
	t     *Tracer
	start time.Time

	mu    sync.Mutex
	rec   spanEntry
	ended bool
}

// Start begins a span under ctx's current span (same trace, parent
// link) or a fresh trace when ctx carries none. The returned context
// carries the new span, so child calls nest and outgoing HTTP hops
// propagate it via InjectHTTP. End must be called to record the span;
// an unended span is simply never recorded (no leak — the handle is
// garbage).
//
// A span costs two allocations, root or child: the span, whose IDs are
// bytes inside it, and the context value that holds it. Its first
// attribute adds the attribute slice.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{t: t, start: t.now(), rec: spanEntry{name: name, tenant: TenantFrom(ctx), jobID: JobIDFrom(ctx)}}
	switch p := ctx.Value(spanCtxKey{}).(type) {
	case *Span:
		sp.rec.trace, sp.rec.parent = p.rec.trace, p.rec.span
	case SpanContext:
		// ContextWithSpan installs only a Valid context, so both decode.
		decodeID(sp.rec.trace[:], p.TraceID)
		decodeID(sp.rec.parent[:], p.SpanID)
	}
	if sp.rec.trace == (traceID{}) {
		t.newID(sp.rec.trace[:])
	}
	t.newID(sp.rec.span[:])
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// HeaderValue is the span's TraceHeader value, "<trace-id>/<span-id>",
// built in one allocation ("" for a nil span). IDs are fixed at Start,
// so reading them needs no lock.
func (s *Span) HeaderValue() string {
	if s == nil {
		return ""
	}
	var b [traceHex + 1 + spanHex]byte
	return string(s.appendHeaderValue(b[:0]))
}

func (s *Span) appendHeaderValue(b []byte) []byte {
	b = hex.AppendEncode(b, s.rec.trace[:])
	b = append(b, '/')
	return hex.AppendEncode(b, s.rec.span[:])
}

// Context returns the span's propagation identity, hex-encoded.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	v := s.HeaderValue()
	return SpanContext{TraceID: v[:traceHex], SpanID: v[traceHex+1:]}
}

// SetAttr attaches a string attribute, overriding an earlier value of
// the same key.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.attrs = append(s.rec.attrs, Attr{k, v})
	s.mu.Unlock()
}

// SetTenant / SetJob fill identity fields learned after Start.
func (s *Span) SetTenant(tenant string) {
	if s == nil || tenant == "" {
		return
	}
	s.mu.Lock()
	s.rec.tenant = tenant
	s.mu.Unlock()
}

func (s *Span) SetJob(id string) {
	if s == nil || id == "" {
		return
	}
	s.mu.Lock()
	s.rec.jobID = id
	s.mu.Unlock()
}

// SetError marks the span failed. nil is a no-op so call sites can
// pass their error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.rec.err = err.Error()
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
	rec.startNS = s.start.UnixNano()
	d := s.t.now().Sub(s.start)
	if d < 0 {
		d = 0
	}
	rec.durNS = int64(d)
	s.t.record(&rec)
}

// record packs a span into the next ring slot, overwriting the oldest
// span once the ring is full and releasing its strings. Once the table
// holds the strings spans repeat, it allocates nothing.
func (t *Tracer) record(rec *spanEntry) {
	t.mu.Lock()
	sl := &t.ring[t.next]
	for _, i := range [...]uint32{sl.name, sl.attrs, sl.err, sl.jobID} {
		t.strs.release(i)
	}
	t.pack(sl, rec)
	t.next++
	if t.next == t.cap {
		t.next = 0
	}
	h, ok := t.hists[rec.name]
	if !ok {
		if len(t.hists) >= maxHistNames {
			t.dropped++
			t.mu.Unlock()
			return
		}
		h = NewHistogram(DefLatencyBuckets...)
		t.hists[rec.name] = h
	}
	t.mu.Unlock()
	h.Observe(float64(rec.durNS) / float64(time.Second))
}

// Trace returns the retained spans of one trace, sorted by start time
// then span ID (deterministic for equal timestamps); a malformed ID has
// none. Spans evicted by the ring are simply absent — the caller sees a
// partial trace, never an error. The ring keeps no index: the lookup
// compares every slot's trace ID under the lock (an unfilled slot's is
// zero, which no valid ID decodes to) and unpacks the matches there, a
// cost paid only by trace fetches, never by recording.
func (t *Tracer) Trace(id string) []SpanRecord {
	var tid traceID
	if t == nil || !decodeID(tid[:], id) {
		return nil
	}
	out := []SpanRecord{}
	t.mu.Lock()
	for i := range t.ring {
		if sl := &t.ring[i]; sl.trace == tid {
			out = append(out, t.unpack(sl, id))
		}
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
