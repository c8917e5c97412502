package server

import (
	"errors"
	"time"

	"dmw/internal/tenant"
)

// Per-tenant admission errors. Both map to HTTP 429: unlike the
// global backpressure pair (ErrQueueFull, ErrDraining) they mean "YOUR
// budget is exhausted, the server is fine", so retrying against another
// replica will not help and no job record is created.
var (
	// ErrRateLimited signals the tenant's token bucket is empty.
	ErrRateLimited = errors.New("server: tenant rate limit exceeded")
	// ErrQuotaExceeded signals the tenant is at its live-job quota.
	ErrQuotaExceeded = errors.New("server: tenant quota exhausted")
)

// Rejection decorates an admission refusal with the transport guidance
// the HTTP layer serves alongside the status: how long to back off
// (Retry-After) and which gate refused (the reason label on
// dmwd_tenant_rejected_total). It wraps the sentinel error, so
// errors.Is(err, ErrQueueFull) etc. keep working.
type Rejection struct {
	// Err is the sentinel this rejection wraps (ErrQueueFull,
	// ErrDraining, ErrRateLimited, ErrQuotaExceeded).
	Err error
	// Reason is the tenant.Reason* gate that refused.
	Reason string
	// Tenant is the refused tenant's identity.
	Tenant string
	// RetryAfter is the derived back-off: token-bucket refill time for
	// rate refusals, expected queue-drain time otherwise.
	RetryAfter time.Duration
}

func (r *Rejection) Error() string { return r.Err.Error() }
func (r *Rejection) Unwrap() error { return r.Err }

// Throttled distinguishes per-tenant refusals (HTTP 429, no job
// record, retrying elsewhere will not help) from global backpressure
// (HTTP 503, job record in state rejected, another replica may have
// room).
func (r *Rejection) Throttled() bool {
	switch r.Reason {
	case tenant.ReasonRate, tenant.ReasonQuota:
		return true
	}
	return false
}
