package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dmw/internal/server"
	"dmw/internal/tenant"
	"dmw/internal/wire"
)

// The submit coalescer: adaptive micro-batching of concurrent single-
// job submits. Independent POST /v1/jobs requests whose IDs hash to the
// same ring owner join a per-owner forming window; the first joiner
// leads it, waits at most CoalesceWindow (flushing early when
// CoalesceMaxBatch fills), and ships the whole window as ONE
// POST /v1/jobs/batch to the owner. Per-item answers fan back to each
// waiter with single-submit fidelity: a 429'd tenant sees ITS 429 with
// ITS Retry-After while its neighbor in the same flush sees a 202 —
// the batch envelope never leaks into any item's answer.
//
// Semantics the window must not change, and how it avoids changing
// them:
//   - Idempotent resubmits: dmwd's batch path rejects duplicate IDs
//     WITHIN one batch (it cannot order them), so a resubmit of an ID
//     already riding the forming window is diverted to the direct
//     single-submit path, where the owner dedupes it normally.
//   - Tenant identity: each waiter's tenant and request ID are stamped
//     into its spec before it joins; the flush request itself carries
//     no identity headers, so the owner derives per-item identity from
//     the specs alone.
//   - Backend death mid-flush: an envelope-level failure (transport
//     error on every candidate, non-200, or an undecodable/misaligned
//     item array) falls back to the direct path PER WAITER — each
//     waiter re-runs an ordinary single submit with ring failover, so a
//     flush that dies loses nothing and acknowledges nothing twice.
type coalescer struct {
	g        *Gateway
	window   time.Duration
	maxBatch int

	mu     sync.Mutex
	groups map[string]*submitGroup // forming windows by ring owner
}

// submitOutcome is what a waiter receives: a synthesized single-submit
// answer, or direct=true ("run the ordinary path yourself").
type submitOutcome struct {
	res    *attemptResult
	direct bool
}

type submitWaiter struct {
	spec server.JobSpec
	done chan submitOutcome // buffered; the flusher never blocks on it
}

type submitGroup struct {
	owner   string
	waiters []*submitWaiter
	ids     map[string]bool
	full    chan struct{} // closed when maxBatch is reached
}

func newCoalescer(g *Gateway, window time.Duration, maxBatch int) *coalescer {
	return &coalescer{g: g, window: window, maxBatch: maxBatch, groups: make(map[string]*submitGroup)}
}

// submit routes spec through the coalescing window for its ring owner.
// joined=false means the spec cannot ride a batch (duplicate ID in the
// forming window, or no ring owner) and the caller must run the direct
// path. With joined=true the returned outcome is authoritative: either
// a fanned-back per-item answer or a direct-fallback instruction.
//
// spec must arrive with RequestID and Tenant already stamped.
func (c *coalescer) submit(ctx context.Context, spec server.JobSpec) (submitOutcome, bool) {
	owner, ok := c.g.ring.Owner(spec.ID)
	if !ok {
		return submitOutcome{}, false
	}
	w := &submitWaiter{spec: spec, done: make(chan submitOutcome, 1)}

	c.mu.Lock()
	grp := c.groups[owner]
	leader := false
	if grp == nil {
		grp = &submitGroup{owner: owner, ids: make(map[string]bool), full: make(chan struct{})}
		c.groups[owner] = grp
		leader = true
	}
	if grp.ids[spec.ID] {
		// An idempotent resubmit of an ID already in this window: the
		// batch RPC would reject it as an in-batch duplicate, so it must
		// go direct (where the owner dedupes it properly).
		c.mu.Unlock()
		return submitOutcome{}, false
	}
	grp.ids[spec.ID] = true
	grp.waiters = append(grp.waiters, w)
	if len(grp.waiters) >= c.maxBatch {
		// Window filled early: detach it so the next submit starts a
		// fresh window, and wake the leader to flush now.
		delete(c.groups, owner)
		close(grp.full)
	}
	c.mu.Unlock()

	if leader {
		select {
		case <-grp.full:
		case <-time.After(c.window):
			c.detach(owner, grp)
		}
		c.flush(grp)
	}

	select {
	case out := <-w.done:
		return out, true
	case <-ctx.Done():
		// The client gave up; its spec still rides the flush (harmless:
		// submission is idempotent) but nobody relays the answer.
		return submitOutcome{}, false
	}
}

// detach removes grp from the forming map if it is still there (a
// full-window flush already detached it).
func (c *coalescer) detach(owner string, grp *submitGroup) {
	c.mu.Lock()
	if c.groups[owner] == grp {
		delete(c.groups, owner)
	}
	c.mu.Unlock()
}

// flush ships the window and fans per-item answers back. Runs on the
// leader's goroutine but under its own deadline: the leader's client
// disconnecting must not fail the other waiters' submits.
func (c *coalescer) flush(grp *submitGroup) {
	g := c.g
	n := len(grp.waiters)
	if n == 1 {
		// Nobody else showed up inside the window: the direct path is
		// strictly better (no batch envelope to unwrap).
		grp.waiters[0].done <- submitOutcome{direct: true}
		return
	}
	g.metrics.coalesceFlushes.Add(1)
	g.metrics.coalescedSubmits.Add(int64(n))
	g.metrics.submitBatchSize.Observe(float64(n))

	specs := make([]server.JobSpec, n)
	for i, w := range grp.waiters {
		specs[i] = w.spec
	}
	frame, err := jobFrame(specs)
	if err != nil {
		// Some waiter's spec does not fit a frame; its own direct submit
		// answers the 400.
		c.fallBack(grp)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
	defer cancel()
	res, err := g.forward(ctx, specs[0].ID, postFrame("/v1/jobs/batch", frame, wire.ContentTypeResultFrame), false)
	if err != nil {
		c.fallBack(grp)
		return
	}
	items, ok := decodeBatchAnswers(res, n)
	if !ok {
		g.releaseResult(res)
		c.fallBack(grp)
		return
	}
	// Item bodies alias the pooled response buffer; each waiter that
	// takes an aliasing body takes its own reference (the flusher's own
	// reference is dropped at the end, after every send).
	for i, w := range grp.waiters {
		if items[i].Status == 0 {
			// No faithful fan-back is possible for a statusless item.
			g.metrics.coalesceDirect.Add(1)
			w.done <- submitOutcome{direct: true}
			continue
		}
		out := synthItemResult(items[i], res.buf)
		if out.buf != nil {
			out.buf.retain(1)
		}
		w.done <- submitOutcome{res: out}
	}
	g.releaseResult(res)
}

// fallBack sends every waiter to the direct path.
func (c *coalescer) fallBack(grp *submitGroup) {
	c.g.metrics.coalesceDirect.Add(int64(len(grp.waiters)))
	for _, w := range grp.waiters {
		w.done <- submitOutcome{direct: true}
	}
}

// decodeBatchAnswers decodes a flush response into per-item answers
// whose bodies alias res.body. ok=false on any envelope-level mismatch —
// not a 200 result frame, undecodable, or a count disagreeing with the
// request — which the flush treats as failed.
func decodeBatchAnswers(res *attemptResult, want int) ([]wire.ResultItem, bool) {
	if res.status != http.StatusOK || res.header.Get("Content-Type") != wire.ContentTypeResultFrame {
		return nil, false
	}
	items, err := wire.DecodeResultFrame(res.body)
	return items, err == nil && len(items) == want
}

// synthItemResult renders one item answer as the response a single
// submit against the owner would have produced: same status, same body
// shape, and — for 429/503 — the ITEM's own derived Retry-After and
// admission price, never anything from the batch envelope.
func synthItemResult(it wire.ResultItem, buf *relayBuf) *attemptResult {
	h := make(http.Header, 3)
	h.Set("Content-Type", "application/json")
	switch it.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		sec := it.RetryAfterSec
		if sec < 1 {
			sec = 1
		}
		h.Set("Retry-After", strconv.Itoa(sec))
		h.Set(tenant.HeaderAdmissionPrice, strconv.FormatFloat(it.Price, 'f', 4, 64))
	}
	res := &attemptResult{status: it.Status, header: h, body: it.Body}
	if len(it.Body) == 0 {
		// Validation and throttle refusals carry no job view; render the
		// same apiError a single submit would have.
		res.body, _ = json.Marshal(apiError{Error: it.ErrMsg})
	} else {
		res.buf = buf // waiter releases its reference after relaying
	}
	return res
}
