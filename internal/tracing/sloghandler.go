package tracing

import (
	"context"
	"log/slog"
)

// SlogHandler wraps a slog.Handler so that every record logged with a
// context carrying a span is stamped with trace_id and span_id. Installed
// by telemetry.NewLogger, it is what lets an operator go from a slog line
// ("check not ok … trace_id=…") straight to the span tree at
// /debug/traces?trace=ID.
type SlogHandler struct {
	inner slog.Handler
}

// WrapSlogHandler returns h wrapped with trace stamping (idempotent: an
// already-wrapped handler is returned as-is).
func WrapSlogHandler(h slog.Handler) slog.Handler {
	if _, ok := h.(*SlogHandler); ok {
		return h
	}
	return &SlogHandler{inner: h}
}

// Enabled implements slog.Handler.
func (h *SlogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, appending trace_id/span_id when the
// context carries a span.
func (h *SlogHandler) Handle(ctx context.Context, rec slog.Record) error {
	if s := FromContext(ctx); s != nil {
		rec.AddAttrs(
			slog.String("trace_id", s.seg.id.String()),
			slog.String("span_id", s.spanID.String()),
		)
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs implements slog.Handler.
func (h *SlogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &SlogHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *SlogHandler) WithGroup(name string) slog.Handler {
	return &SlogHandler{inner: h.inner.WithGroup(name)}
}
