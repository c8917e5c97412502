package commit

import (
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"runtime"
	"sync"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

// This file implements small-exponent batch verification of the share
// identities (equations (7)-(9)) across all senders at once. Instead of
// 3(n-1) independent sigma-term checks, the receiver draws random 64-bit
// coefficients r7, r8, r9 per sender and checks the single random linear
// combination
//
//	Commit(A, B) = prod_k prod_l O_{k,l}^{r7_k alpha^l}
//	                             Q_{k,l}^{r8_k alpha^l}
//	                             R_{k,l}^{r9_k alpha^l}
//
// where A and B aggregate the share-side exponents mod q:
//
//	A = sum_k r7_k e_k f_k + r8_k e_k + r9_k f_k
//	B = sum_k r7_k g_k + (r8_k + r9_k) h_k
//
// If every per-sender equation holds, each deviation factor is 1 and the
// combined identity holds exactly — the batch never falsely rejects. If
// any equation fails, the combination detects it except with probability
// ~2^-64 over the choice of coefficients, and the verifier falls back to
// the per-sender checks to attribute the deviation to a specific agent
// (abort messages must name the guilty party, step III.1).
//
// Soundness subtlety: the right-hand side's exponents r * alpha^l are
// used as plain integers via MultiExpNoReduce, NOT reduced mod q.
// Adversarially chosen commitment elements need not lie in the order-q
// subgroup, so mod-q reduction would change the value; integer-exponent
// identities hold unconditionally in Z_p^*. The left-hand side may reduce
// mod q because z1 and z2 have verified order q.

// batchCoeffBits is the bit length of the random batching coefficients: a
// cheating sender escapes detection with probability ~2^-batchCoeffBits.
const batchCoeffBits = 64

// BatchItem is one sender's contribution to a batched share
// verification: the sender's published commitments and the share it
// delivered to the verifying receiver.
type BatchItem struct {
	Sender int // agent index, used for attribution on failure
	C      *Commitments
	S      bidcode.Share
}

// VerifyError attributes a failed share verification to the sender whose
// share or commitments caused it.
type VerifyError struct {
	Sender int
	Err    error
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("agent %d: %v", e.Sender, e.Err)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// Request is one receiver's share-verification batch: the unit VerifyBatch
// merges. AlphaPowers must be PowersOf for the receiver's own pseudonym
// (reduced mod q); Rng supplies the batching coefficients (the caller's
// per-agent deterministic stream in simulations; nil means crypto/rand).
type Request struct {
	AlphaPowers []*big.Int
	Items       []BatchItem
	Rng         io.Reader
}

// validate runs the structural pass: batching only makes sense over
// well-formed inputs, and structural failures must be attributed
// immediately (before any coefficient is drawn).
func (r Request) validate() *VerifyError {
	sigma := len(r.AlphaPowers)
	for _, it := range r.Items {
		if err := it.C.Validate(); err != nil {
			return &VerifyError{Sender: it.Sender, Err: err}
		}
		if it.C.Sigma() != sigma {
			return &VerifyError{Sender: it.Sender, Err: fmt.Errorf("commit: sigma %d != %d powers", it.C.Sigma(), sigma)}
		}
		if it.S.E == nil || it.S.F == nil || it.S.G == nil || it.S.H == nil {
			return &VerifyError{Sender: it.Sender, Err: errors.New("commit: incomplete share")}
		}
	}
	return nil
}

// BatchVerifyShares checks equations (7)-(9) for every item with a single
// random-linear-combination identity. alphaPowers must be PowersOf for
// the receiver's own pseudonym; rng supplies the batching coefficients
// (the caller's per-agent deterministic stream in simulations; nil means
// crypto/rand). On success it returns nil: the batch accepts exactly the
// inputs the per-sender checks accept. On failure it re-runs VerifyShare
// per sender (bounded parallelism) and returns a *VerifyError naming the
// lowest-indexed offending sender, matching the sequential scan's
// first-failure semantics.
func BatchVerifyShares(g *group.Group, alphaPowers []*big.Int, items []BatchItem, rng io.Reader) error {
	if len(items) == 0 {
		return nil
	}
	req := Request{AlphaPowers: alphaPowers, Items: items, Rng: rng}
	if verr := req.validate(); verr != nil {
		return verr
	}
	ok, err := combinedCheck(g, []Request{req})
	if err != nil {
		return err
	}
	if ok {
		return nil
	}

	// The combination failed: at least one sender deviated (the batch has
	// no false rejects). Re-run the per-sender checks to name the culprit;
	// the scans are independent, so run them with bounded parallelism and
	// report the lowest-indexed failure to match the sequential semantics.
	if verr := verifyEach(g, alphaPowers, items); verr != nil {
		return verr
	}
	// Unreachable in practice: the combination rejected but every
	// individual equation holds. Only possible if the ~2^-64 soundness
	// error fired in reverse, which it cannot (deviations of 1 combine to
	// an exact identity); kept as a defensive belt.
	return errors.New("commit: batch verification failed but no individual share failed")
}

// VerifyBatch verifies one lockstep round's requests — one per receiver
// of an auction — and returns one verdict per request, each exactly what
// BatchVerifyShares returns for it alone. A request that fails the
// structural pass is attributed at once and joins no pass; the valid ones
// run one combinedCheck together, so the round raises each sender's
// broadcast bases once. If that pass rejects, or a request's rng fails,
// every member is verified again on its own by BatchVerifyShares: the
// guilty sender is named by its own receiver, and the honest requests of
// the round see nil. No term cap is needed: the requests of one auction's
// round merge to at most n*3*sigma bases, which the spec's limits bound.
// Every non-nil Rng must not be used by the caller until the call
// returns.
func VerifyBatch(g *group.Group, reqs []Request) []error {
	errs := make([]error, len(reqs))
	valid := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if len(req.Items) == 0 {
			continue
		}
		if verr := req.validate(); verr != nil {
			errs[i] = verr
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) > 1 {
		pass := make([]Request, len(valid))
		for k, i := range valid {
			pass[k] = reqs[i]
		}
		if ok, err := combinedCheck(g, pass); ok && err == nil {
			return errs
		}
	}
	// A lone request, or the merged pass rejected (some request holds a
	// bad share) or a request's rng failed mid-draw.
	for _, i := range valid {
		errs[i] = BatchVerifyShares(g, reqs[i].AlphaPowers, reqs[i].Items, reqs[i].Rng)
	}
	return errs
}

// combinedCheck evaluates the random-linear-combination identity over
// every item of every request in ONE Commit + one MultiExpNoReduce pass
// and reports whether it held. Requests must be pre-validated. Combining
// requests is sound because every item draws fresh independent
// coefficients: the combined identity is exactly the identity of the
// concatenated item list, and different receivers' alphaPowers simply
// parameterize their own items' exponents.
//
// Terms that share a base are merged before the multi-exponentiation. A
// sender's broadcast *Commitments is checked by each of its n-1 receivers,
// so a pass over one auction's receivers carries every base n-1 times;
// since B^x * B^y = B^(x+y) holds for integer exponents in any group, the
// pass raises each base once, to the SUM of its unreduced exponents
// r*alpha^l, and (n-1)*n*3*sigma terms become n*3*sigma. The sum is never
// reduced mod q — the bases are not known to have order q (see the
// soundness note at the top of the file). Bases merge by the identity of
// the *Commitments object they came from, as SharedGammaCache keys its
// entries: receivers holding the same broadcast object share its terms,
// while an equivocating sender's distinct objects stay distinct terms.
func combinedCheck(g *group.Group, reqs []Request) (bool, error) {
	var acc rlcAcc
	acc.layout(reqs)
	for _, r := range reqs {
		if err := acc.appendRequest(r); err != nil {
			return false, err
		}
	}
	lhs := g.Commit(&acc.a, &acc.b)
	rhs, err := g.MultiExpNoReduce(acc.bases, acc.exps)
	if err != nil {
		return false, fmt.Errorf("commit: %w", err)
	}
	return g.Equal(lhs, rhs), nil
}

// coeffWords is the word footprint of a batching coefficient.
const coeffWords = (batchCoeffBits + bits.UintSize - 1) / bits.UintSize

// rlcAcc accumulates the two sides of the combined identity. The LHS
// exponent aggregates a, b grow unreduced (Commit reduces mod q at the
// end, which preserves the identity because z1, z2 have order q); the
// RHS exponents, sums of r*alpha^l, are plain integers (see the soundness
// note at the top of the file). To keep the hot path allocation-free, the
// RHS exponent big.Ints are carved out of two per-pass slabs: a header
// slab and a word slab sliced with enough capacity that neither Mul nor
// Add ever reallocates.
type rlcAcc struct {
	a, b  big.Int // unreduced LHS exponent aggregates
	bases []*big.Int
	exps  []*big.Int
	// slot maps a commitments object to the index of its first term; its
	// 3*sigma terms follow in (O_l, Q_l, R_l) order for l = 1..sigma.
	slot       map[*Commitments]int
	r7, r8, r9 big.Int // current item's coefficients (backing reused)
	t1, t2     big.Int // product staging
	buf        [batchCoeffBits / 8]byte
}

// layout assigns every distinct commitments object of the pass its block
// of terms, fills in the bases, and carves the zero-valued exponent
// accumulators out of the slabs. reqs must be non-empty.
func (acc *rlcAcc) layout(reqs []Request) {
	items, apWords := 0, 0
	for _, r := range reqs {
		items += len(r.Items)
		for _, ap := range r.AlphaPowers {
			if w := len(ap.Bits()); w > apWords {
				apWords = w
			}
		}
	}
	acc.slot = make(map[*Commitments]int, items)
	// Sized for the common pass, one auction's receivers: every request
	// names all but one of the same n senders.
	acc.bases = make([]*big.Int, 0, 3*len(reqs[0].AlphaPowers)*(len(reqs[0].Items)+1))
	for _, r := range reqs {
		for _, it := range r.Items {
			if _, ok := acc.slot[it.C]; ok {
				continue
			}
			acc.slot[it.C] = len(acc.bases)
			for l := range it.C.O {
				acc.bases = append(acc.bases, it.C.O[l], it.C.Q[l], it.C.R[l])
			}
		}
	}
	// A product r*alpha^l spans at most apWords+coeffWords words. Where
	// bases are shared, summing up to 2^64 products adds one word, and Add
	// wants one of headroom beyond the longer operand.
	stride := apWords + coeffWords
	if len(acc.slot) < items {
		stride += 2
	}
	hdrs := make([]big.Int, len(acc.bases))
	words := make([]big.Word, len(acc.bases)*stride)
	acc.exps = make([]*big.Int, len(acc.bases))
	for i := range hdrs {
		hdrs[i].SetBits(words[i*stride : i*stride : (i+1)*stride])
		acc.exps[i] = &hdrs[i]
	}
}

// appendRequest draws coefficients for every item of req and adds its
// terms to the accumulator. The coefficient draw order (r7, r8, r9 per
// item, 8 bytes each) is part of the simulation's determinism contract.
func (acc *rlcAcc) appendRequest(req Request) error {
	rng := req.Rng
	if rng == nil {
		rng = cryptorand.Reader
	}
	coeffs := [3]*big.Int{&acc.r7, &acc.r8, &acc.r9}
	for _, it := range req.Items {
		if err := acc.drawCoeff(rng, &acc.r7); err != nil {
			return err
		}
		if err := acc.drawCoeff(rng, &acc.r8); err != nil {
			return err
		}
		if err := acc.drawCoeff(rng, &acc.r9); err != nil {
			return err
		}

		// A += r7*e*f + r8*e + r9*f ; B += r7*g + (r8+r9)*h. A product
		// never lands in one of its operands: big.Int.Mul would allocate
		// (unless the other operand is one word, as r7 is on 64-bit words).
		t1 := &acc.t1
		acc.t2.Mul(it.S.E, it.S.F)
		t1.Mul(&acc.t2, &acc.r7)
		acc.a.Add(&acc.a, t1)
		t1.Mul(&acc.r8, it.S.E)
		acc.a.Add(&acc.a, t1)
		t1.Mul(&acc.r9, it.S.F)
		acc.a.Add(&acc.a, t1)
		t1.Mul(&acc.r7, it.S.G)
		acc.b.Add(&acc.b, t1)
		acc.t2.Add(&acc.r8, &acc.r9)
		t1.Mul(&acc.t2, it.S.H)
		acc.b.Add(&acc.b, t1)

		// Right-hand side: add the unreduced integer r*alpha^l to the
		// exponent of each of this item's bases.
		exps := acc.exps[acc.slot[it.C]:]
		for l, ap := range req.AlphaPowers {
			for j, r := range coeffs {
				if e := exps[3*l+j]; e.Sign() == 0 {
					e.Mul(r, ap) // first term on this base: straight into the slab
				} else {
					e.Add(e, t1.Mul(r, ap))
				}
			}
		}
	}
	return nil
}

// drawCoeff draws a uniform batchCoeffBits-bit nonzero coefficient into
// r, reusing r's backing words.
func (acc *rlcAcc) drawCoeff(rng io.Reader, r *big.Int) error {
	if _, err := io.ReadFull(rng, acc.buf[:]); err != nil {
		return fmt.Errorf("commit: drawing batch coefficient: %w", err)
	}
	r.SetBytes(acc.buf[:])
	if r.Sign() == 0 {
		r.SetInt64(1) // zero would null a sender's contribution
	}
	return nil
}

// verifyEach runs VerifyShare for every item with at most GOMAXPROCS
// workers and returns the failure with the lowest sender index.
func verifyEach(g *group.Group, alphaPowers []*big.Int, items []BatchItem) *VerifyError {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	errs := make([]error, len(items))
	if workers <= 1 {
		for _, it := range items {
			if err := it.C.VerifyShare(g, alphaPowers, it.S); err != nil {
				return &VerifyError{Sender: it.Sender, Err: err}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = items[i].C.VerifyShare(g, alphaPowers, items[i].S)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &VerifyError{Sender: items[i].Sender, Err: err}
		}
	}
	return nil
}
