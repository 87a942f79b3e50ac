// Package prints seeds the noprint corpus.
package prints

import (
	"fmt"
	stdlog "log"
	"log/slog"
)

// Shout prints from a library package: flagged three times (the alias does
// not hide the log package from a type-based check, and slog's package-level
// functions write through the process-default logger).
func Shout(msg string) {
	fmt.Println(msg)
	stdlog.Printf("shout: %s", msg)
	slog.Info("shout", "msg", msg)
}

// Quiet formats without printing and logs through the logger it is handed:
// clean.
func Quiet(lg *slog.Logger, msg string) string {
	lg.Info("quiet", "msg", msg)
	return fmt.Sprintf("quiet: %s", msg)
}
