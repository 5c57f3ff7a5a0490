package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestCtxHandlerStampsCorrelationFields(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "json", slog.String("service", "s1"), slog.String("shard", "s1"))

	tr := testTracer("s1")
	ctx, sp := tr.Start(context.Background(), "submit")
	ctx = WithTenant(ctx, "acme")
	ctx = WithJobID(ctx, "j42")
	lg.InfoContext(ctx, "job accepted", "queue", 3)
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	sc := sp.Context()
	for k, want := range map[string]string{
		"trace_id": sc.TraceID,
		"span_id":  sc.SpanID,
		"tenant":   "acme",
		"job":      "j42",
		"shard":    "s1",
		"service":  "s1",
		"msg":      "job accepted",
	} {
		if got, _ := rec[k].(string); got != want {
			t.Fatalf("field %q = %q, want %q (line %s)", k, got, want, buf.String())
		}
	}
}

func TestTextLoggerOmitsMissingFields(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "text")
	lg.InfoContext(context.Background(), "plain")
	s := buf.String()
	for _, forbidden := range []string{"trace_id", "tenant", "job=", "shard"} {
		if strings.Contains(s, forbidden) {
			t.Fatalf("bare context leaked %q: %s", forbidden, s)
		}
	}
	if !strings.Contains(s, "plain") {
		t.Fatalf("message lost: %s", s)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	lg := Nop()
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatalf("nop logger claims enabled")
	}
	lg.Info("goes nowhere") // must not panic
}
