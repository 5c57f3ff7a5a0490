package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Prometheus text exposition (version 0.0.4): a writer that emits
// HELP/TYPE-annotated counters, gauges and histograms, a lock-free
// fixed-bucket Histogram for latency distributions (bucket counts
// aggregate across shards, quantiles do not), and a promtool-style
// lint used by the tests to keep the exposition parseable by real
// scrapers.

// DefLatencyBuckets are the default duration buckets in seconds, shared
// by span durations and submit latency — cache hits (about 0.1 ms)
// through multi-minute whole-GPU runs.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket cumulative histogram with atomic
// counters: Observe is lock-free and allocation-free, so it sits on
// request hot paths.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf after
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (the +Inf bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy for exposition.
type HistogramSnapshot struct {
	// Bounds are the finite upper bounds; Counts has len(Bounds)+1
	// entries (per-bucket, not cumulative), the last being +Inf.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram. Buckets are read individually, so a
// snapshot under concurrent Observes may be off by in-flight counts —
// fine for monitoring, and Count is read last so sums never exceed it
// by more than the races in flight.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) the way
// Prometheus's histogram_quantile does: find the bucket holding rank
// q·n and interpolate linearly within it, taking 0 as the lower edge of
// the first bucket. Mass in the +Inf bucket clamps to the highest
// finite bound. An empty snapshot estimates 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := math.Max(0, math.Min(1, q)) * float64(n)
	var below uint64
	for i, c := range s.Counts {
		if i < len(s.Bounds) && c > 0 && float64(below+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			return lo + (s.Bounds[i]-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one name="value" pair.
type Label struct{ Name, Value string }

// PromWriter accumulates a text exposition. Emit every series of one
// metric name consecutively (HELP/TYPE are written on first use of a
// name, and Prometheus requires grouped families).
type PromWriter struct {
	b    strings.Builder
	seen map[string]bool
}

func (w *PromWriter) header(name, typ, help string) {
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (w *PromWriter) sample(name string, labels []Label, v float64) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.b.WriteByte(',')
			}
			fmt.Fprintf(&w.b, "%s=%q", l.Name, escapeLabel(l.Value))
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(v))
	w.b.WriteByte('\n')
}

// Counter emits one counter series. By convention (enforced by
// LintProm) counter names end in "_total".
func (w *PromWriter) Counter(name, help string, v float64, labels ...Label) {
	w.header(name, "counter", help)
	w.sample(name, labels, v)
}

// Gauge emits one gauge series.
func (w *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	w.header(name, "gauge", help)
	w.sample(name, labels, v)
}

// Histogram emits one histogram family member: cumulative _bucket
// series (le-labelled, +Inf included), _sum and _count.
func (w *PromWriter) Histogram(name, help string, s HistogramSnapshot, labels ...Label) {
	w.header(name, "histogram", help)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		bl := append(append([]Label(nil), labels...), Label{"le", le})
		w.sample(name+"_bucket", bl, float64(cum))
	}
	w.sample(name+"_sum", labels, s.Sum)
	w.sample(name+"_count", labels, float64(s.Count))
}

// Bytes returns the accumulated exposition.
func (w *PromWriter) Bytes() []byte { return []byte(w.b.String()) }

// LintProm validates a text exposition the way `promtool check
// metrics` would: well-formed names and label syntax, HELP/TYPE
// placement, grouped metric families, counters ending in _total,
// histogram bucket completeness (le present, ascending, +Inf last)
// and no duplicate series. It returns the first violation with its
// line number, or nil. Vendored here (stdlib-only) so CI lints the
// exposition without a Prometheus dependency.
func LintProm(data []byte) error {
	type family struct {
		typ        string
		hasSamples bool
		closed     bool // a later family started; more samples = ungrouped
	}
	families := map[string]*family{}
	series := map[string]bool{}
	current := ""
	var bucketLEs []float64 // le values of the open histogram family, in order

	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("prom lint: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	baseOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					return base
				}
			}
		}
		return name
	}
	closeFamily := func(line int, base string) error {
		if f, ok := families[base]; ok && f.typ == "histogram" && f.hasSamples {
			if len(bucketLEs) == 0 {
				return fail(line, "histogram %s has no _bucket series", base)
			}
			if !math.IsInf(bucketLEs[len(bucketLEs)-1], +1) {
				return fail(line, "histogram %s missing +Inf bucket", base)
			}
		}
		bucketLEs = nil
		return nil
	}

	lines := strings.Split(string(data), "\n")
	for ln, raw := range lines {
		line := ln + 1
		text := strings.TrimRight(raw, " \t")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				name := fields[2]
				if !validMetricName(name) {
					return fail(line, "invalid metric name %q in %s", name, fields[1])
				}
				f := families[name]
				if f == nil {
					f = &family{}
					families[name] = f
				}
				if f.hasSamples {
					return fail(line, "%s for %s after its samples", fields[1], name)
				}
				if fields[1] == "TYPE" {
					if f.typ != "" {
						return fail(line, "duplicate TYPE for %s", name)
					}
					if len(fields) < 4 {
						return fail(line, "TYPE %s missing type", name)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fail(line, "unknown TYPE %q for %s", fields[3], name)
					}
					f.typ = fields[3]
					if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
						return fail(line, "counter %s should end in _total", name)
					}
				}
			}
			continue
		}

		name, labels, value, perr := parseSample(text)
		if perr != nil {
			return fail(line, "%v", perr)
		}
		if !validMetricName(name) {
			return fail(line, "invalid metric name %q", name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return fail(line, "metric %s: bad value %q", name, value)
		}
		base := baseOf(name)
		if base != current {
			if current != "" {
				if err := closeFamily(line, current); err != nil {
					return err
				}
				if f, ok := families[current]; ok {
					f.closed = true
				}
			}
			if f, ok := families[base]; ok && f.closed {
				return fail(line, "metric family %s not grouped (samples interleaved)", base)
			}
			current = base
		}
		f := families[base]
		if f == nil {
			f = &family{typ: "untyped"}
			families[base] = f
		}
		f.hasSamples = true
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			return fail(line, "counter %s should end in _total", name)
		}
		if f.typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, ok := labels["le"]
			if !ok {
				return fail(line, "histogram bucket %s missing le label", name)
			}
			lv, err := parseLE(le)
			if err != nil {
				return fail(line, "histogram bucket %s: bad le %q", name, le)
			}
			if n := len(bucketLEs); n > 0 && !(lv > bucketLEs[n-1]) {
				// A new label-set's bucket run restarts at the lowest bound.
				if lv > bucketLEs[0] || !math.IsInf(bucketLEs[n-1], +1) {
					return fail(line, "histogram %s: le %q out of order", base, le)
				}
				bucketLEs = bucketLEs[:0]
			}
			bucketLEs = append(bucketLEs, lv)
		}
		key := name + "|" + canonLabels(labels)
		if series[key] {
			return fail(line, "duplicate series %s", text)
		}
		series[key] = true
	}
	if current != "" {
		if err := closeFamily(len(lines), current); err != nil {
			return err
		}
	}
	return nil
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func canonLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// parseSample parses `name{l="v",...} value [timestamp]`.
func parseSample(s string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' && s[i] != '\t' {
		i++
	}
	name = s[:i]
	if i < len(s) && s[i] == '{' {
		i++
		for {
			for i < len(s) && (s[i] == ' ' || s[i] == ',') {
				i++
			}
			if i < len(s) && s[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(s) && s[j] != '=' {
				j++
			}
			if j >= len(s) {
				return "", nil, "", fmt.Errorf("unterminated label in %q", s)
			}
			lname := s[i:j]
			if !validLabelName(lname) {
				return "", nil, "", fmt.Errorf("invalid label name %q", lname)
			}
			i = j + 1
			if i >= len(s) || s[i] != '"' {
				return "", nil, "", fmt.Errorf("label %s: unquoted value", lname)
			}
			i++
			var val strings.Builder
			for i < len(s) && s[i] != '"' {
				if s[i] == '\\' && i+1 < len(s) {
					i++
					switch s[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(s[i])
					}
				} else {
					val.WriteByte(s[i])
				}
				i++
			}
			if i >= len(s) {
				return "", nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			i++ // closing quote
			labels[lname] = val.String()
		}
	}
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		return "", nil, "", fmt.Errorf("sample %q missing value", s)
	}
	fields := strings.Fields(rest)
	if len(fields) > 2 {
		return "", nil, "", fmt.Errorf("sample %q has trailing garbage", s)
	}
	return name, labels, fields[0], nil
}
