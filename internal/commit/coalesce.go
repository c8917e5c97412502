package commit

import (
	"io"
	"math/big"
	"sync"
	"time"

	"dmw/internal/group"
)

// This file implements the fleet-wide verifier tier: coalescing share
// verifications from CONCURRENT receivers — across auctions and across
// jobs on the same group — into one combined random-linear-combination
// pass. Within a job, the n receivers of a round verify nearly
// simultaneously (rounds are barrier-synchronized), and a loaded worker
// pool runs many such jobs at once; each combined pass replaces up to
// maxTerms worth of independent Commit + MultiExp evaluations with one,
// and raises every base the requests share once instead of once per
// receiver (see combinedCheck).
//
// Passes are formed by arrival, never by a timer. A request that finds no
// pass running runs one at once, over itself alone. Requests that arrive
// while a pass is running queue up and together form the next pass, so
// the batch size follows the load: an idle coalescer adds nothing to a
// lone verification, a busy one combines whatever one pass's duration
// collects. The goroutine that finishes a pass does not drain the queue
// itself — that would make one caller pay for everyone behind it — but
// hands leadership to the head of the queue, which runs the next pass
// over the queued requests (its own included) and hands on in turn. A
// request therefore waits through at most one pass it is not part of
// (one leader's turn, strictly: a batch beyond maxTerms runs as several
// consecutive chunks of the same turn).
//
// Soundness is inherited from BatchVerifyShares: every item draws fresh
// independent coefficients from its own request's rng, so the combined
// identity is exactly the single-batch identity over the concatenated
// item list (different receivers' alphaPowers merely parameterize their
// own items' exponents), and a cheating sender escapes with probability
// ~2^-64 regardless of how many requests share the pass.
//
// Attribution is NOT weakened by coalescing: when a combined pass
// fails, every member request is re-verified independently via
// BatchVerifyShares, which falls back to per-sender checks — so the
// guilty agent is named by its own receiver and honest jobs in the same
// pass see nil, exactly as if they had never shared a batch. The
// wrong-job-blamed failure mode is pinned by TestCoalescerGuiltyJobIsolation.

// DefaultMaxBatchTerms caps one combined MultiExp so a pathological pileup
// cannot build an unbounded exponent table. It counts terms before bases
// shared between requests are merged.
const DefaultMaxBatchTerms = 4096

// Coalescer aggregates share-verification requests from concurrent
// goroutines into combined passes. It owns no goroutine and no timer: the
// callers themselves run the passes, one at a time, each handing
// leadership to the next (see the file comment). A Coalescer is safe for
// concurrent use and needs no shutdown.
type Coalescer struct {
	g        *group.Group
	maxTerms int
	observe  func(items int) // per combined pass: coalesced item count

	mu      sync.Mutex
	pending []*pendingReq // arrived while a pass was running
	running bool          // some caller is leading a pass
}

// pendingReq is one caller's request and the channel it sleeps on. A
// queued caller is woken exactly once per role: with the batch to lead
// (itself at the head) if the finishing leader hands it leadership, and
// with its verdict once the pass covering it has run. The buffer of one
// lets a leader post its own verdict like any other member's.
type pendingReq struct {
	req  Request
	wake chan wakeup
}

type wakeup struct {
	lead []*pendingReq // non-nil: lead a pass over this batch
	err  error         // otherwise: the request's verdict
}

// NewCoalescer builds a coalescer over g. maxTerms <= 0 selects
// DefaultMaxBatchTerms; observe (optional) is called once per combined
// pass with the number of share items it covered, for the
// dmwd_verify_batch_size histogram.
//
// The second argument was the coalescing window of the timer-driven
// implementation. It is accepted and ignored, and is retained only until
// a [benchmark] PR can edit the call at benchmark/layers.go:470, which a
// PR that claims a gain may not touch.
func NewCoalescer(g *group.Group, _ time.Duration, maxTerms int, observe func(items int)) *Coalescer {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxBatchTerms
	}
	return &Coalescer{g: g, maxTerms: maxTerms, observe: observe}
}

// Group returns the group every request must have been built over.
func (c *Coalescer) Group() *group.Group { return c.g }

// VerifyShares is the coalescing equivalent of BatchVerifyShares: same
// arguments, same results (nil acceptance, *VerifyError attribution,
// first-failure semantics), but the combined pass may span other
// goroutines' concurrent requests. It is VerifyBatch over one request.
func (c *Coalescer) VerifyShares(alphaPowers []*big.Int, items []BatchItem, rng io.Reader) error {
	return c.VerifyBatch([]Request{{AlphaPowers: alphaPowers, Items: items, Rng: rng}})[0]
}

// VerifyBatch verifies several requests — typically one per receiver of
// an auction whose agents are stepped on the calling goroutine — and
// returns one verdict per request, each exactly what VerifyShares would
// return for it alone. The requests join the queue together, so they
// share a pass with each other and with other goroutines' concurrent
// requests. The call blocks for the pass that covers them and, if one was
// already running on arrival, for the rest of that one. Every non-nil
// Rng must not be used by the caller until the call returns (the pass
// leader draws that request's coefficients from it).
func (c *Coalescer) VerifyBatch(reqs []Request) []error {
	errs := make([]error, len(reqs))
	batch := make([]*pendingReq, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if len(req.Items) == 0 {
			continue
		}
		// Structural failures are attributed immediately and never join a
		// combined pass.
		if verr := req.validate(); verr != nil {
			errs[i] = verr
			continue
		}
		batch = append(batch, &pendingReq{req: req, wake: make(chan wakeup, 1)})
		idx = append(idx, i)
	}
	if len(batch) == 0 {
		return errs
	}
	c.mu.Lock()
	idle := !c.running
	if idle {
		c.running = true
	} else {
		// Appended in one critical section, the batch is never split by
		// a handoff: only its head can be handed leadership.
		c.pending = append(c.pending, batch...)
	}
	c.mu.Unlock()
	if idle {
		c.lead(batch)
	}
	for k, p := range batch {
		for {
			w := <-p.wake
			if w.lead == nil {
				errs[idx[k]] = w.err
				break
			}
			c.lead(w.lead)
		}
	}
	return errs
}

// lead runs one pass over batch, then passes leadership to the head of
// whatever queued up meanwhile, or marks the coalescer idle.
func (c *Coalescer) lead(batch []*pendingReq) {
	c.flush(batch)
	c.mu.Lock()
	next := c.pending
	c.pending = nil
	c.running = len(next) > 0
	c.mu.Unlock()
	if len(next) > 0 {
		next[0].wake <- wakeup{lead: next}
	}
}

// flush verifies a batch in maxTerms-bounded chunks and posts every
// member's verdict. A single oversized request still runs (as its own
// chunk); the bound only stops chunks from growing past it.
func (c *Coalescer) flush(batch []*pendingReq) {
	for len(batch) > 0 {
		n := 1
		terms := batch[0].req.terms()
		for n < len(batch) && terms+batch[n].req.terms() <= c.maxTerms {
			terms += batch[n].req.terms()
			n++
		}
		c.verifyChunk(batch[:n])
		batch = batch[n:]
	}
}

func (c *Coalescer) verifyChunk(chunk []*pendingReq) {
	if c.observe != nil {
		items := 0
		for _, p := range chunk {
			items += len(p.req.Items)
		}
		c.observe(items)
	}
	if len(chunk) > 1 {
		reqs := make([]Request, len(chunk))
		for i, p := range chunk {
			reqs[i] = p.req
		}
		if ok, err := combinedCheck(c.g, reqs); ok && err == nil {
			for _, p := range chunk {
				p.wake <- wakeup{}
			}
			return
		}
	}
	// A lone request, or the combined pass rejected (some request holds a
	// bad share) or a request's rng failed mid-draw. Verify every member
	// independently: honest jobs get nil, the guilty job gets its own
	// *VerifyError (or its rng error) — no cross-job blame.
	for _, p := range chunk {
		p.wake <- wakeup{err: BatchVerifyShares(c.g, p.req.AlphaPowers, p.req.Items, p.req.Rng)}
	}
}
