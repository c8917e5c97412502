package tenant

import (
	"math"
	"sync"
	"time"
)

// RateEstimator tracks an exponentially-weighted events-per-second
// rate from event arrival times. The server feeds it job completions;
// the quotient queueDepth/rate is the expected drain time, which is
// what a derived Retry-After should tell a backpressured client.
type RateEstimator struct {
	mu   sync.Mutex
	tau  float64
	rate float64
	last time.Time
}

// DefaultRateTau smooths the drain-rate estimate over recent history.
const DefaultRateTau = 10 * time.Second

// NewRateEstimator builds an estimator (DefaultRateTau when tau <= 0).
func NewRateEstimator(tau time.Duration) *RateEstimator {
	if tau <= 0 {
		tau = DefaultRateTau
	}
	return &RateEstimator{tau: tau.Seconds()}
}

// Tick records one event (a job completion).
func (r *RateEstimator) Tick(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last.IsZero() {
		r.last = now
		return
	}
	dt := now.Sub(r.last).Seconds()
	r.last = now
	if dt <= 0 {
		// Two completions on the same clock tick: treat as a very fast
		// pair at the finest resolution we trust.
		dt = 1e-6
	}
	inst := 1 / dt
	a := 1 - math.Exp(-dt/r.tau)
	r.rate += a * (inst - r.rate)
}

// Rate returns the current estimate in events/second, decayed for the
// silence since the last event (a stalled server's estimate falls
// toward zero instead of reporting its last good throughput forever).
func (r *RateEstimator) Rate(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last.IsZero() {
		return 0
	}
	dt := now.Sub(r.last).Seconds()
	if dt <= 0 {
		return r.rate
	}
	return r.rate * math.Exp(-dt/r.tau)
}

// RetryAfter converts a backlog and a drain-rate estimate into the
// integral seconds a client should wait before retrying: the expected
// time for the backlog to drain, clamped to [1s, 60s] so a cold
// estimator never tells a client "0" (hammer me) or "an hour" (go
// away). With no estimate at all it falls back to a depth-scaled
// guess of one second per queued-jobs-per-worker.
func RetryAfter(backlog int, rate float64, workers int) time.Duration {
	if backlog < 1 {
		backlog = 1
	}
	var secs float64
	if rate > 1e-9 {
		secs = float64(backlog) / rate
	} else {
		if workers < 1 {
			workers = 1
		}
		secs = float64(backlog) / float64(workers)
	}
	secs = math.Ceil(secs)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}
