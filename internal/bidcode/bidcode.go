// Package bidcode implements DMW's degree encoding of bids (Phase II,
// step II.1 of the protocol).
//
// A bid y is a discrete value from the published set
// W = {w_1 < w_2 < ... < w_k} with 0 < w_1 and w_k < n-c+1, where n is the
// number of agents and c the maximum number of faulty agents. The agent
// draws four random polynomials with zero constant term:
//
//	e(x) of degree tau = sigma - y   (the bid, inverted: low bid = high degree)
//	f(x) of degree sigma - tau = y   (the bid, direct)
//	g(x), h(x) of degree sigma       (blinding polynomials)
//
// with sigma = w_k + c + 1. Summing the e-polynomials of all agents and
// resolving the degree of the sum reveals sigma minus the minimum bid; the
// f-polynomials identify the winner.
package bidcode

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"dmw/internal/field"
	"dmw/internal/poly"
)

// Config carries the public bid-encoding parameters published during
// Phase I (Initialization).
type Config struct {
	// W is the set of allowed discrete bid values, strictly ascending.
	W []int
	// C is the maximum number of faulty agents tolerated; adding C to
	// the polynomial degrees makes at least C+2 colluders necessary to
	// expose a bid through the e-polynomials (Theorem 10).
	C int
	// N is the number of participating agents.
	N int
}

// Sigma returns sigma = w_k + c + 1, the common degree bound of the
// blinding polynomials and commitment vectors.
func (c Config) Sigma() int {
	if len(c.W) == 0 {
		return 0
	}
	return c.W[len(c.W)-1] + c.C + 1
}

// MaxSharesNeeded returns the number of distinct evaluation points degree
// resolution may need: the largest candidate degree sigma - w_1 plus one.
func (c Config) MaxSharesNeeded() int {
	if len(c.W) == 0 {
		return 0
	}
	return c.Sigma() - c.W[0] + 1
}

// Validate checks the constraints from the paper's notation section plus
// the corrected interpolation bound (see DESIGN.md): bids strictly
// ascending, 0 < w_1, w_k < n-c+1, c < n, and n large enough to supply
// sigma - w_1 + 1 evaluation points.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("bidcode: need at least 2 agents, have %d", c.N)
	}
	if c.C < 0 {
		return fmt.Errorf("bidcode: negative fault bound %d", c.C)
	}
	if c.C >= c.N {
		return fmt.Errorf("bidcode: fault bound c = %d must be < n = %d", c.C, c.N)
	}
	if len(c.W) == 0 {
		return errors.New("bidcode: empty bid set W")
	}
	prev := 0
	for i, w := range c.W {
		if w <= prev {
			return fmt.Errorf("bidcode: W must be strictly ascending and positive; W[%d] = %d", i, w)
		}
		prev = w
	}
	wk := c.W[len(c.W)-1]
	if wk >= c.N-c.C+1 {
		return fmt.Errorf("bidcode: w_k = %d must be < n-c+1 = %d", wk, c.N-c.C+1)
	}
	if need := c.MaxSharesNeeded(); need > c.N {
		return fmt.Errorf("bidcode: degree resolution needs %d evaluation points but only %d agents participate (choose smaller W span or larger n)", need, c.N)
	}
	return nil
}

// Contains reports whether y is an allowed bid value.
func (c Config) Contains(y int) bool {
	i := sort.SearchInts(c.W, y)
	return i < len(c.W) && c.W[i] == y
}

// NearestBid maps an arbitrary positive valuation onto the closest allowed
// bid value, rounding up so an agent never undersells its true cost. Values
// above w_k saturate at w_k.
func (c Config) NearestBid(v int64) int {
	for _, w := range c.W {
		if int64(w) >= v {
			return w
		}
	}
	return c.W[len(c.W)-1]
}

// DegreeCandidates returns the possible degrees of the summed e-polynomial,
// one per allowed bid value, in strictly ascending order:
// {sigma - w : w in W} (equation (12)'s candidate set).
func (c Config) DegreeCandidates() []int {
	sigma := c.Sigma()
	out := make([]int, 0, len(c.W))
	for i := len(c.W) - 1; i >= 0; i-- {
		out = append(out, sigma-c.W[i])
	}
	return out
}

// EncodedBid is the private result of encoding one bid for one task: the
// bid value, its degree encoding, and the four random polynomials of
// equation (3).
type EncodedBid struct {
	// Y is the bid value in W.
	Y int
	// Tau = sigma - Y is the degree of E.
	Tau int
	// E and F encode the bid in their degrees (Tau and Y respectively);
	// G and H are degree-sigma blinding polynomials.
	E, F, G, H *poly.Poly
}

// Encode draws the four random polynomials for bid y under the given
// configuration, e, f, g, h in that order. The polynomial coefficients
// come from src (crypto/rand when nil); all 3*sigma + 4 of them live in
// one slab.
func Encode(cfg Config, y int, f *field.Field, src io.Reader) (*EncodedBid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Contains(y) {
		return nil, fmt.Errorf("bidcode: bid %d not in W = %v", y, cfg.W)
	}
	sigma := cfg.Sigma()
	tau := sigma - y
	coeffs := field.Pointers(f.Slab(3*sigma + 4))
	polys := new([4]poly.Poly)
	var s field.Scratch
	for i, p := range [4]struct {
		name   string
		degree int
	}{{"e", tau}, {"f", y}, {"g", sigma}, {"h", sigma}} {
		cs := coeffs[: p.degree+1 : p.degree+1]
		coeffs = coeffs[p.degree+1:]
		if err := polys[i].SetRandomZeroConst(f, cs, src, &s); err != nil {
			return nil, fmt.Errorf("bidcode: drawing %s: %w", p.name, err)
		}
	}
	return &EncodedBid{Y: y, Tau: tau, E: &polys[0], F: &polys[1], G: &polys[2], H: &polys[3]}, nil
}

// Share is the tuple of evaluations an agent securely transmits to one
// peer in step II.2: e_i(alpha_k), f_i(alpha_k), g_i(alpha_k), h_i(alpha_k).
type Share struct {
	E, F, G, H *big.Int
}

// Clone returns a deep copy of the share (tamper hooks in the strategy
// layer mutate copies, never originals).
func (s Share) Clone() Share {
	cp := Share{}
	if s.E != nil {
		cp.E = new(big.Int).Set(s.E)
	}
	if s.F != nil {
		cp.F = new(big.Int).Set(s.F)
	}
	if s.G != nil {
		cp.G = new(big.Int).Set(s.G)
	}
	if s.H != nil {
		cp.H = new(big.Int).Set(s.H)
	}
	return cp
}

// WireSize returns the approximate encoded size of the share in bytes,
// used by the communication-cost accounting of experiment T1-comm.
func (s Share) WireSize() int {
	n := 0
	for _, v := range []*big.Int{s.E, s.F, s.G, s.H} {
		if v != nil {
			n += (v.BitLen() + 7) / 8
		}
	}
	return n
}

// ShareFor evaluates the four polynomials at pseudonym alpha.
func (b *EncodedBid) ShareFor(alpha *big.Int) Share {
	return b.SharesFor([]*big.Int{alpha})[0]
}

// SharesFor is SharesWith over a scratch of its own, whose Horner
// accumulator and staging product grow on first use (two allocations).
func (b *EncodedBid) SharesFor(alphas []*big.Int) []Share {
	var s field.Scratch
	return b.SharesWith(alphas, &s)
}

// SharesWith evaluates the polynomials at every pseudonym in order: four
// Horner evaluations per pseudonym over the caller's scratch s, into one
// slab of 4*len(alphas) values. A caller dealing many bids (the engine
// deals every agent's of an auction over one scratch) pays for the
// scratch's words once.
func (b *EncodedBid) SharesWith(alphas []*big.Int, s *field.Scratch) []Share {
	vs := b.E.Field().Slab(4 * len(alphas))
	out := make([]Share, len(alphas))
	for i, a := range alphas {
		v := vs[4*i : 4*i+4]
		out[i] = Share{
			E: b.E.EvalInto(&v[0], a, s),
			F: b.F.EvalInto(&v[1], a, s),
			G: b.G.EvalInto(&v[2], a, s),
			H: b.H.EvalInto(&v[3], a, s),
		}
	}
	return out
}

// Pseudonyms returns the canonical pseudonym set A = {alpha_1..alpha_n}
// published in Phase I: alpha_i = i+1 (field.Pseudonyms). The values only
// need to be distinct and nonzero; small integers keep interpolation
// cheap. An error is returned if n >= q (pseudonyms would collide).
func Pseudonyms(f *field.Field, n int) ([]*big.Int, error) {
	return f.Pseudonyms(n)
}
