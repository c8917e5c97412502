// Package obs is the unified observability layer shared by the dmwd
// daemon, the dmwgw gateway, and the dmw protocol runtime:
//
//   - structured logging: log/slog constructors behind the daemons'
//     -log-level/-log-format flags (NewLogger), plus a printf adapter
//     (Logf) the server and gateway derive from their one Logger, so
//     every printf-style lifecycle line flows through the same handler;
//   - request correlation: generation and sanitization of the
//     X-Request-Id values that tie a gateway log line, a backend log
//     line, and a job record to the same client call (NewRequestID,
//     CleanRequestID, HeaderRequestID);
//   - protocol span tracing: an allocation-conscious span recorder
//     (Recorder) the DMW run instruments its four phases with, JSONL
//     export for GET /v1/jobs/{id}/trace, and a text waterfall renderer
//     behind cmd/dmwtrace;
//   - telemetry primitives: one histogram type (HDR: cumulative
//     buckets, tail exemplars, Prometheus-style plain-text exposition;
//     log-spaced by default, explicit bounds for count-valued series),
//     Go runtime gauges (WriteRuntimeMetrics), and the ldflags-stamped
//     <daemon>_build_info gauge (WriteBuildInfo).
//
// Everything span-related is nil-safe: a nil *Recorder (and the nil
// *ActiveSpan its Start returns) turns every instrumentation call into
// a pointer test, so the hot path pays near-zero cost when tracing is
// not attached. docs/OBSERVABILITY.md is the operator-facing guide.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// HeaderRequestID is the correlation header: generated at the gateway
// (or by dmwd itself for direct calls), echoed on every response,
// propagated gateway -> backend, stored on the job record, and emitted
// on every related log line.
const HeaderRequestID = "X-Request-Id"

// maxRequestIDLen bounds accepted correlation IDs; longer values are
// replaced, not truncated, so an ID is always verbatim-searchable.
const maxRequestIDLen = 128

// NewRequestID draws a fresh correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure on Linux means the process is doomed
		// anyway; degrade to a time-derived ID rather than panic.
		return fmt.Sprintf("req-t%x", time.Now().UnixNano())
	}
	return "req-" + hex.EncodeToString(b[:])
}

// CleanRequestID returns id when it is usable as a correlation ID
// (1-128 chars of [A-Za-z0-9._:-], safe in headers, logs, and JSON) and
// a freshly generated ID otherwise. Sanitizing rather than erroring
// keeps correlation best-effort: a client sending garbage still gets a
// traceable request, just not under its chosen name.
func CleanRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return NewRequestID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return NewRequestID()
		}
	}
	return id
}
