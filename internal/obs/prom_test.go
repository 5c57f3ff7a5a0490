package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1, 1} // <=0.1, <=1, <=10, +Inf
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-56.05) > 1e-9 {
		t.Fatalf("sum %v, want 56.05", s.Sum)
	}
	// Boundary values land in their bucket (le is inclusive).
	h2 := NewHistogram(1)
	h2.Observe(1)
	if s2 := h2.Snapshot(); s2.Counts[0] != 1 {
		t.Fatalf("boundary observation missed the le=1 bucket: %v", s2.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	if q := NewHistogram(1, 2).Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty histogram: p50 = %v, want 0", q)
	}

	// All mass in the (1, 2] bucket: interpolate linearly across it.
	h := NewHistogram(1, 2, 4)
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	s := h.Snapshot()
	for q, want := range map[float64]float64{0: 1, 0.5: 1.5, 0.75: 1.75, 1: 2} {
		if got := s.Quantile(q); got != want {
			t.Errorf("single bucket: Quantile(%v) = %v, want %v", q, got, want)
		}
	}

	// Mass past the last finite bound clamps to that bound.
	h = NewHistogram(1, 2, 4)
	h.Observe(0.5)
	h.Observe(100)
	h.Observe(100)
	if got := h.Snapshot().Quantile(0.99); got != 4 {
		t.Errorf("+Inf mass: p99 = %v, want the highest finite bound 4", got)
	}

	// Monotone in q over a spread of observations on the shared layout.
	h = NewHistogram(DefLatencyBuckets...)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1 ms .. 100 ms
	}
	s = h.Snapshot()
	prev := s.Quantile(0)
	for q := 0.01; q <= 1; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%.2f) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestPromWriterOutputLintsClean(t *testing.T) {
	var w PromWriter
	w.Counter("regvd_submitted_total", "Jobs submitted.", 42)
	w.Counter("regvd_shard_submitted_total", "Per-shard jobs.", 10, Label{"shard", "s1"})
	w.Counter("regvd_shard_submitted_total", "Per-shard jobs.", 20, Label{"shard", "s2"})
	w.Gauge("regvd_queue_depth", "Tasks queued.", 3)
	h := NewHistogram(DefLatencyBuckets...)
	h.Observe(0.004)
	h.Observe(2)
	w.Histogram("regvd_span_seconds", "Span durations.", h.Snapshot(), Label{"span", "sim.run"})
	w.Histogram("regvd_span_seconds", "Span durations.", h.Snapshot(), Label{"span", "queue.wait"})
	w.Gauge("regvd_weird_label", "Escaping.", 1, Label{"v", "a\"b\\c\nd"})

	out := w.Bytes()
	if err := LintProm(out); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"# TYPE regvd_submitted_total counter",
		"regvd_submitted_total 42",
		`regvd_shard_submitted_total{shard="s1"} 10`,
		`regvd_span_seconds_bucket{span="sim.run",le="+Inf"} 2`,
		`regvd_span_seconds_count{span="sim.run"} 2`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("exposition missing %q:\n%s", want, s)
		}
	}
	// HELP/TYPE only once per family.
	if strings.Count(s, "# TYPE regvd_shard_submitted_total") != 1 {
		t.Fatalf("duplicate family header:\n%s", s)
	}
}

func TestLintPromCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"bad name", "9bad_metric 1\n", "invalid metric name"},
		{"counter without _total", "# TYPE foo counter\nfoo 1\n", "should end in _total"},
		{"type after samples", "foo_total 1\n# TYPE foo_total counter\n", "after its samples"},
		{"duplicate type", "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "duplicate TYPE"},
		{"unknown type", "# TYPE x florble\nx 1\n", "unknown TYPE"},
		{"bad value", "x yes\n", "bad value"},
		{"duplicate series", "x 1\nx 2\n", "duplicate series"},
		{"ungrouped family", "a 1\nb 2\na{l=\"v\"} 3\n", "not grouped"},
		{
			"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"+Inf",
		},
		{
			"histogram le out of order",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 2\n",
			"out of order",
		},
		{"unquoted label", "x{l=v} 1\n", "unquoted"},
		{"bad label name", "x{0l=\"v\"} 1\n", "invalid label name"},
	}
	for _, c := range cases {
		err := LintProm([]byte(c.in))
		if err == nil {
			t.Fatalf("%s: lint accepted\n%s", c.name, c.in)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// A healthy multi-label-set histogram passes.
	ok := "# TYPE h histogram\n" +
		"h_bucket{s=\"a\",le=\"1\"} 1\nh_bucket{s=\"a\",le=\"+Inf\"} 1\n" +
		"h_bucket{s=\"b\",le=\"1\"} 0\nh_bucket{s=\"b\",le=\"+Inf\"} 2\n" +
		"h_sum{s=\"a\"} 0.5\nh_count{s=\"a\"} 1\n" +
		"h_sum{s=\"b\"} 3\nh_count{s=\"b\"} 2\n"
	if err := LintProm([]byte(ok)); err != nil {
		t.Fatalf("healthy histogram rejected: %v", err)
	}
}
