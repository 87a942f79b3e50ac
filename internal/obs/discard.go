package obs

import (
	"context"
	"log/slog"
)

// DiscardLogger is what an unset Log option falls back to. Every level is
// disabled, so a call returns before it formats a line. It stands in for
// slog.DiscardHandler, which needs Go 1.24.
var DiscardLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
