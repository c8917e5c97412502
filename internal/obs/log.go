package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Log formats accepted by -log-format.
const (
	LogFormatText = "text"
	LogFormatJSON = "json"
)

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the daemon logger behind -log-level/-log-format.
// Format "json" emits one JSON object per line (machine-parseable; the
// obs-smoke target asserts it); "text" is slog's key=value handler.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case LogFormatJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case LogFormatText, "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
}

// Logf adapts a structured logger to a printf-style sink: the server
// and the gateway derive theirs from Config.Logger (the server hands it
// on to the journal and replicator it owns, whose configs take such a
// sink), so every lifecycle line flows through the same handler (and
// the same -log-format) as the structured events. A nil logger returns
// a discard func.
func Logf(l *slog.Logger) func(format string, args ...any) {
	if l == nil {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
