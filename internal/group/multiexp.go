package group

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"dmw/internal/mont"
)

// This file implements the multi-exponentiation engine behind the
// protocol's verification hot path: computing
//
//	prod_i bases[i]^{exps[i]}  (mod p)
//
// in a single interleaved pass instead of len(bases) independent
// big.Int.Exp calls. Two algorithms are provided and selected by an
// explicit cost model:
//
//   - Straus interleaving (simultaneous windowed exponentiation): one
//     shared chain of squarings for all terms, plus one table lookup and
//     multiplication per term per window. Ideal for the protocol's
//     typical term counts (sigma = a few dozen commitment elements).
//
//   - Pippenger bucketing: per window, terms are multiplied into
//     2^w - 1 digit buckets which are then aggregated with the
//     running-product trick; the shared squaring chain is identical.
//     Cost per window is ~(terms + 2^w) multiplications independent of
//     the per-term table construction, so it wins for the large batches
//     produced by BatchVerifyShares (hundreds of terms).
//
// Theorem 12 bounds DMW's per-agent computation by these modular
// exponentiations (equations (7)-(9), (11), (13)); every verification
// identity in internal/commit routes through MultiExp, so this file is
// where the bound's constant factor is won. docs/PERFORMANCE.md derives
// the operation counts; BenchmarkMultiExp measures them.

// ErrMultiExpInput reports structurally invalid MultiExp arguments.
var ErrMultiExpInput = errors.New("group: invalid multi-exp input")

// MultiExp returns prod_i bases[i]^{exps[i]} mod p. Exponents are reduced
// mod q first, which is valid because every element the protocol
// exponentiates has order q. The empty product is the identity.
//
// For cost accounting the call is attributed its term count: a MultiExp
// over t terms adds t to the exponentiation counter (it replaces t
// independent Exp calls) and is additionally recorded in the dedicated
// multi-exp counters.
func (g *Group) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	if err := checkTerms(bases, exps, false); err != nil {
		return nil, err
	}
	g.countMultiExp(len(bases))
	return multiExpInto(g.mont, new(big.Int), bases, exps, g.params.Q), nil
}

// MultiExpNoReduce is MultiExp without the mod-q exponent reduction:
// exponents must be non-negative and are used verbatim. The batched
// small-exponent verification (commit.BatchVerifyShares) needs this
// variant because its random-linear-combination exponents multiply
// adversarially chosen group elements whose order is unknown — reducing
// mod q is only sound for order-q elements, whereas integer-exponent
// identities hold unconditionally in Z_p^*.
func (g *Group) MultiExpNoReduce(bases, exps []*big.Int) (*big.Int, error) {
	if err := checkTerms(bases, exps, true); err != nil {
		return nil, err
	}
	g.countMultiExp(len(bases))
	return multiExpInto(g.mont, new(big.Int), bases, exps, nil), nil
}

// checkTerms rejects mismatched lengths, nil terms and, when
// nonNegative is set, negative exponents.
func checkTerms(bases, exps []*big.Int, nonNegative bool) error {
	if len(bases) != len(exps) {
		return fmt.Errorf("%w: %d bases vs %d exponents", ErrMultiExpInput, len(bases), len(exps))
	}
	for i, e := range exps {
		if e == nil || bases[i] == nil {
			return fmt.Errorf("%w: nil term at index %d", ErrMultiExpInput, i)
		}
		if nonNegative && e.Sign() < 0 {
			return fmt.Errorf("%w: negative exponent at index %d", ErrMultiExpInput, i)
		}
	}
	return nil
}

// terms is the working list of a multi-exponentiation's nonzero terms,
// pooled so that a warm call allocates nothing for it.
type terms struct{ bases, exps []*big.Int }

var termsPool = sync.Pool{New: func() any { return new(terms) }}

// multiExpInto sets z to the product, dispatching to the cheaper
// algorithm for the input shape, and returns z. Bases are reduced mod p
// internally; exponents are reduced mod q when q is non-nil and must be
// non-negative otherwise. In-range inputs and a warm z cost no
// allocation.
func multiExpInto(m *mont.Ctx, z *big.Int, bases, exps []*big.Int, q *big.Int) *big.Int {
	p := m.Modulus()
	// Drop zero-exponent terms up front: they contribute the identity and
	// would only pad the tables.
	ts := termsPool.Get().(*terms)
	defer func() {
		clear(ts.bases)
		clear(ts.exps)
		ts.bases, ts.exps = ts.bases[:0], ts.exps[:0]
		termsPool.Put(ts)
	}()
	maxBits := 0
	for i, e := range exps {
		if q != nil && (e.Sign() < 0 || e.Cmp(q) >= 0) {
			e = new(big.Int).Mod(e, q)
		}
		if e.Sign() == 0 {
			continue
		}
		b := bases[i]
		if b.Sign() < 0 || b.Cmp(p) >= 0 {
			b = new(big.Int).Mod(b, p)
		}
		ts.bases = append(ts.bases, b)
		ts.exps = append(ts.exps, e)
		if l := e.BitLen(); l > maxBits {
			maxBits = l
		}
	}
	nb, ne := ts.bases, ts.exps
	switch len(nb) {
	case 0:
		return z.SetInt64(1)
	case 1:
		return z.Exp(nb[0], ne[0], p)
	}
	method, w := planMultiExp(len(nb), maxBits)
	if method == methodPippenger {
		return pippengerMont(m, z, nb, ne, w, maxBits)
	}
	return strausMont(m, z, nb, ne, w, maxBits)
}

const (
	methodStraus = iota
	methodPippenger
)

// planMultiExp picks the algorithm and window width minimizing the
// estimated modular-multiplication count for n terms of b-bit exponents.
//
//	straus(w)    = b + n*(2^w - 2) + n*ceil(b/w)
//	pippenger(w) = b + ceil(b/w)*(n + 2^w)
//
// (first term: the shared squaring chain; the rest: table construction /
// bucket aggregation plus per-term multiplications).
func planMultiExp(n, b int) (method int, window uint) {
	if b == 0 {
		return methodStraus, 1
	}
	bestCost := int(^uint(0) >> 1)
	method, window = methodStraus, 1
	for w := 1; w <= 8; w++ {
		c := b + n*((1<<w)-2) + n*((b+w-1)/w)
		if c < bestCost {
			bestCost, method, window = c, methodStraus, uint(w)
		}
	}
	for w := 1; w <= 12; w++ {
		c := b + ((b+w-1)/w)*(n+(1<<w))
		if c < bestCost {
			bestCost, method, window = c, methodPippenger, uint(w)
		}
	}
	return method, window
}

// windowDigit extracts width bits of e (given as its Bits() words)
// starting at bit offset, handling digits that straddle a word boundary.
func windowDigit(words []big.Word, offset, width uint) uint {
	const ws = uint(bits.UintSize)
	wi := offset / ws
	if wi >= uint(len(words)) {
		return 0
	}
	shift := offset % ws
	d := uint(words[wi] >> shift)
	if shift+width > ws && wi+1 < uint(len(words)) {
		d |= uint(words[wi+1]) << (ws - shift)
	}
	return d & ((1 << width) - 1)
}

// strausMultiExp is the big.Int-facing wrapper used by tests to force
// the Straus path; production calls flow through multiExpInto with the
// Group's cached Montgomery context.
func strausMultiExp(p *big.Int, bases, exps []*big.Int, w uint, maxBits int) *big.Int {
	return strausMont(mont.New(p), new(big.Int), bases, exps, w, maxBits)
}

// pippengerMultiExp is the big.Int-facing wrapper used by tests to force
// the bucket path.
func pippengerMultiExp(p *big.Int, bases, exps []*big.Int, w uint, maxBits int) *big.Int {
	return pippengerMont(mont.New(p), new(big.Int), bases, exps, w, maxBits)
}

// strausMont interleaves windowed exponentiations over a shared squaring
// chain: per window, w squarings total (not per term) plus one table
// multiplication per term with a nonzero digit, and writes the product
// into z. All arithmetic runs in the Montgomery domain (package mont);
// bases must be in [0, p).
func strausMont(m *mont.Ctx, z *big.Int, bases, exps []*big.Int, w uint, maxBits int) *big.Int {
	ws := m.Acquire()
	defer m.Release(ws)
	t := ws.T
	k := m.Words()
	// Per-term power tables live in one arena slab: entry (i, d) at
	// word offset (i*rowLen + d-1)*k holds bases[i]^d in Montgomery
	// form, for d = 1..2^w-1.
	rowLen := (1 << w) - 1
	tab := ws.Take(len(bases) * rowLen * k)
	entry := func(i, d int) []uint64 {
		off := (i*rowLen + d - 1) * k
		return tab[off : off+k]
	}
	for i, b := range bases {
		m.ToMontInto(entry(i, 1), b, ws)
		for d := 2; d <= rowLen; d++ {
			m.Mul(entry(i, d), entry(i, d-1), entry(i, 1), t)
		}
	}

	acc := ws.Acc
	copy(acc, m.One())
	started := false
	numWindows := (maxBits + int(w) - 1) / int(w)
	for win := numWindows - 1; win >= 0; win-- {
		if started {
			for s := uint(0); s < w; s++ {
				m.Mul(acc, acc, acc, t)
			}
		}
		offset := uint(win) * w
		for i := range bases {
			d := windowDigit(exps[i].Bits(), offset, w)
			if d == 0 {
				continue
			}
			m.Mul(acc, acc, entry(i, int(d)), t)
			started = true
		}
	}
	return m.FromMontInto(z, acc, t)
}

// pippengerMont is the bucket method: per window, each term is
// multiplied into the bucket of its digit, and the buckets are folded
// with the running-product trick (prod_d bucket[d]^d computed in
// 2*(2^w - 1) multiplications), over the same shared squaring chain.
func pippengerMont(m *mont.Ctx, z *big.Int, bases, exps []*big.Int, w uint, maxBits int) *big.Int {
	ws := m.Acquire()
	defer m.Release(ws)
	t := ws.T
	k := m.Words()
	mb := ws.Take(len(bases) * k)
	for i, b := range bases {
		m.ToMontInto(mb[i*k:(i+1)*k], b, ws)
	}
	// Buckets live in one flat arena slab. Occupancy is tracked by a
	// per-window generation stamp instead of a reset pass: bucket d is
	// live in window win iff stamp[d] == win+1 (the initial zeros match
	// no window).
	store := ws.Take((1 << w) * k)
	stamp := ws.Take(1 << w)
	running := ws.Take(k)
	for d := range stamp {
		stamp[d] = 0
	}
	bucket := func(d uint) []uint64 { return store[int(d)*k : (int(d)+1)*k] }

	acc := ws.Acc
	copy(acc, m.One())
	started := false
	numWindows := (maxBits + int(w) - 1) / int(w)
	for win := numWindows - 1; win >= 0; win-- {
		if started {
			for s := uint(0); s < w; s++ {
				m.Mul(acc, acc, acc, t)
			}
		}
		offset := uint(win) * w
		gen := uint64(win) + 1
		used := false
		for i := range bases {
			d := windowDigit(exps[i].Bits(), offset, w)
			if d == 0 {
				continue
			}
			if stamp[d] != gen {
				copy(bucket(d), mb[i*k:(i+1)*k])
				stamp[d] = gen
			} else {
				m.Mul(bucket(d), bucket(d), mb[i*k:(i+1)*k], t)
			}
			used = true
		}
		if !used {
			continue
		}
		// running = prod_{e >= d} bucket[e]; window sum = prod_d bucket[d]^d.
		copy(running, m.One())
		haveRunning := false
		for d := len(stamp) - 1; d >= 1; d-- {
			if stamp[d] == gen {
				m.Mul(running, running, bucket(uint(d)), t)
				haveRunning = true
			}
			if haveRunning {
				m.Mul(acc, acc, running, t)
			}
		}
		started = true
	}
	return m.FromMontInto(z, acc, t)
}
