package obs

import (
	"context"
	"io"
	"log/slog"
)

// Structured logging: a log/slog handler wrapper that stamps every
// line logged with a context (logger.InfoContext and friends) with
// the trace/span IDs, tenant and job ID that context carries. Code
// logs plainly; the handler supplies the correlation fields, and the
// logger's fixed attributes (regvd's shard name) ride on every line.

// NewLogger builds a *slog.Logger writing to w. format selects the
// handler: "json" for machine-shipped logs, anything else (regvd's
// "text" default) for human-readable key=value lines. The fixed attrs
// (e.g. the shard name) are appended to every line.
func NewLogger(w io.Writer, format string, attrs ...slog.Attr) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	if len(attrs) > 0 {
		h = h.WithAttrs(attrs)
	}
	return slog.New(&CtxHandler{Inner: h})
}

// CtxHandler decorates records with the observability context. It
// wraps any slog.Handler, so tests can capture through it too.
type CtxHandler struct {
	Inner slog.Handler
}

func (h *CtxHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.Inner.Enabled(ctx, l)
}

func (h *CtxHandler) Handle(ctx context.Context, r slog.Record) error {
	if sc, ok := SpanContextFrom(ctx); ok {
		r.AddAttrs(slog.String("trace_id", sc.TraceID), slog.String("span_id", sc.SpanID))
	}
	if t := TenantFrom(ctx); t != "" {
		r.AddAttrs(slog.String("tenant", t))
	}
	if j := JobIDFrom(ctx); j != "" {
		r.AddAttrs(slog.String("job", j))
	}
	return h.Inner.Handle(ctx, r)
}

func (h *CtxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &CtxHandler{Inner: h.Inner.WithAttrs(attrs)}
}

func (h *CtxHandler) WithGroup(name string) slog.Handler {
	return &CtxHandler{Inner: h.Inner.WithGroup(name)}
}

// Nop returns a logger that discards everything — the default for
// library layers when the caller wires no logger, so call sites never
// nil-check.
func Nop() *slog.Logger {
	return slog.New(nopHandler{})
}

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }
