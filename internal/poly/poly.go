// Package poly implements polynomials over Z_q and the polynomial degree
// resolution procedure of Section 2.4 of the paper.
//
// DMW encodes an agent's bid in the degree of a randomly chosen polynomial
// with zero constant term. Summing the agents' polynomials and resolving
// the degree of the sum reveals the extreme bid while concealing the
// others. Degree resolution works by Lagrange interpolation at zero: a
// polynomial f with f(0) = 0 interpolated at zero over s distinct nonzero
// nodes yields exactly 0 whenever s >= deg(f)+1, and a (pseudo)random field
// element otherwise.
//
// Note on the paper's off-by-one: Section 2.4 states that s = deg(f) nodes
// suffice for exact interpolation. The interpolation error at 0 with s
// nodes is a_s * (-1)^s * prod(alpha_i), which is nonzero whenever the
// polynomial's true degree is s, so exactness in fact requires
// s >= deg(f)+1 nodes. This package implements the corrected rule;
// TestPaperRuleOffByOne demonstrates the discrepancy.
package poly

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"dmw/internal/field"
)

// Poly is a polynomial over Z_q, stored as coefficients in ascending
// order: Coeff(i) is the coefficient of x^i. The zero value is the zero
// polynomial.
type Poly struct {
	f      *field.Field
	coeffs []*big.Int
}

// ErrDegreeUnresolved is returned by ResolveDegree when no candidate
// degree passes the interpolation test.
var ErrDegreeUnresolved = errors.New("poly: no candidate degree resolves")

// New builds a polynomial from ascending coefficients. Coefficients are
// reduced mod q and copied.
func New(f *field.Field, coeffs []*big.Int) *Poly {
	cs := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		cs[i] = f.Reduce(c)
	}
	return &Poly{f: f, coeffs: cs}
}

// NewRandomZeroConst draws a random polynomial of exactly the given degree
// with zero constant term:
//
//	f(x) = a_1 x + a_2 x^2 + ... + a_d x^d
//
// with a_1..a_{d-1} uniform in Z_q and a_d uniform in Z_q^* (the leading
// coefficient must be nonzero or the encoded degree would be wrong).
// A degree of 0 yields the zero polynomial.
func NewRandomZeroConst(f *field.Field, degree int, src io.Reader) (*Poly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", degree)
	}
	coeffs := make([]*big.Int, degree+1)
	coeffs[0] = new(big.Int)
	for i := 1; i < degree; i++ {
		c, err := f.Rand(src)
		if err != nil {
			return nil, fmt.Errorf("poly: drawing coefficient %d: %w", i, err)
		}
		coeffs[i] = c
	}
	if degree >= 1 {
		lead, err := f.RandNonZero(src)
		if err != nil {
			return nil, fmt.Errorf("poly: drawing leading coefficient: %w", err)
		}
		coeffs[degree] = lead
	}
	return &Poly{f: f, coeffs: coeffs}, nil
}

// Field returns the coefficient field.
func (p *Poly) Field() *field.Field { return p.f }

// Degree returns the degree of the polynomial, ignoring trailing zero
// coefficients. The zero polynomial has degree 0 by this convention.
func (p *Poly) Degree() int {
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		if p.coeffs[i].Sign() != 0 {
			return i
		}
	}
	return 0
}

// Coeff returns the coefficient of x^i (zero beyond the stored length).
// The returned value is a fresh copy.
func (p *Poly) Coeff(i int) *big.Int {
	if i < 0 || i >= len(p.coeffs) {
		return new(big.Int)
	}
	return new(big.Int).Set(p.coeffs[i])
}

// CoeffView returns the stored coefficient of x^i without copying it (a
// shared zero beyond the stored length). The value is read-only: callers
// must not mutate it. Hot loops use it where Coeff's defensive copy would
// be the only allocation.
func (p *Poly) CoeffView(i int) *big.Int {
	if i < 0 || i >= len(p.coeffs) {
		return zero
	}
	return p.coeffs[i]
}

var zero = new(big.Int)

// Len returns the number of stored coefficients (degree bound + 1).
func (p *Poly) Len() int { return len(p.coeffs) }

// Eval evaluates the polynomial at x by Horner's rule (the paper cites
// Horner for the share computation cost in Theorem 12).
func (p *Poly) Eval(x *big.Int) *big.Int {
	var s field.Scratch
	return p.EvalInto(new(big.Int), x, &s)
}

// EvalInto sets z to the polynomial's value at x and returns z: Horner's
// rule over one accumulator, one multiply-add-reduce per coefficient, with
// every temporary in s. z must not alias x.
func (p *Poly) EvalInto(z, x *big.Int, s *field.Scratch) *big.Int {
	z.SetUint64(0)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		p.f.MulAddInto(z, z, x, p.coeffs[i], s)
	}
	return z
}

// EvalAll evaluates the polynomial at each node.
func (p *Poly) EvalAll(xs []*big.Int) []*big.Int {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		out[i] = p.Eval(x)
	}
	return out
}

// Add returns p + q; the polynomials must share a field.
func (p *Poly) Add(q *Poly) *Poly {
	n := len(p.coeffs)
	if len(q.coeffs) > n {
		n = len(q.coeffs)
	}
	coeffs := make([]*big.Int, n)
	for i := range coeffs {
		coeffs[i] = p.f.Add(p.CoeffView(i), q.CoeffView(i))
	}
	return &Poly{f: p.f, coeffs: coeffs}
}

// Mul returns the product polynomial p*q. DMW commits to the coefficients
// of e_i * f_i (equation (5)); the product of two zero-constant
// polynomials has zero coefficients for x^0 and x^1.
func (p *Poly) Mul(q *Poly) *Poly {
	if len(p.coeffs) == 0 || len(q.coeffs) == 0 {
		return &Poly{f: p.f, coeffs: []*big.Int{new(big.Int)}}
	}
	// One slab of headers; each coefficient accumulates its products in
	// place.
	slab := make([]big.Int, len(p.coeffs)+len(q.coeffs)-1)
	coeffs := make([]*big.Int, len(slab))
	for i := range coeffs {
		coeffs[i] = &slab[i]
	}
	var s field.Scratch
	for i, a := range p.coeffs {
		if a.Sign() == 0 {
			continue
		}
		for j, b := range q.coeffs {
			p.f.MulAddInto(coeffs[i+j], a, b, coeffs[i+j], &s)
		}
	}
	return &Poly{f: p.f, coeffs: coeffs}
}

// Share is one evaluation point of a secret polynomial: the node (an
// agent's pseudonym alpha) and the polynomial's value there.
type Share struct {
	Node  *big.Int
	Value *big.Int
}

// InterpolateAtZero computes the s-th Lagrange interpolation f^(s)(0) of
// equation (2) from the given shares as the inner product
//
//	f^(s)(0) = sum_k rho_k * f(alpha_k)
//
// over the nodes' Lagrange-at-zero coefficients (field.LagrangeAtZero).
// This is Section 2.4's three-step algorithm with its divisions collected:
// psi_k / alpha_k all divide by alpha_k * prod_{i != k} (alpha_k - alpha_i),
// and the s denominators are inverted together (Montgomery's trick) rather
// than 2s times one by one. The three-step formula as printed carries an
// extra factor (-1)^(s-1) relative to the Lagrange value returned here; no
// zero test can tell them apart. A caller interpolating many value vectors
// over the same nodes should take the rho vector once and use
// field.InnerProductInto per vector.
//
// Nodes must be distinct and nonzero.
func InterpolateAtZero(f *field.Field, shares []Share) (*big.Int, error) {
	s := len(shares)
	if s == 0 {
		return nil, errors.New("poly: no shares")
	}
	nodes := make([]*big.Int, s)
	values := make([]*big.Int, s)
	for i, sh := range shares {
		nodes[i], values[i] = sh.Node, sh.Value
	}
	rho, err := f.LagrangeAtZero(nodes)
	if err != nil {
		return nil, err
	}
	return f.InnerProduct(rho, values)
}

// ResolveDegree determines the degree of a zero-constant-term polynomial
// from its shares. Candidates must be sorted ascending; for each candidate
// degree d it interpolates at zero using the first d+1 shares and accepts
// the first candidate whose interpolation vanishes. It returns
// ErrDegreeUnresolved when no candidate passes (e.g. the true degree
// exceeds every candidate, or too few shares are supplied).
//
// The probability that a wrong (too-small) candidate falsely passes is
// approximately 1/q per candidate (Section 2.4 states 1/p; our exponent
// arithmetic lives in Z_q). Experiment E-degres measures this rate.
func ResolveDegree(f *field.Field, shares []Share, candidates []int) (int, error) {
	if len(candidates) == 0 {
		return 0, errors.New("poly: no candidate degrees")
	}
	prev := -1
	for _, d := range candidates {
		if d < 0 {
			return 0, fmt.Errorf("poly: negative candidate degree %d", d)
		}
		if d <= prev {
			return 0, fmt.Errorf("poly: candidates not strictly ascending at %d", d)
		}
		prev = d
		if d+1 > len(shares) {
			return 0, fmt.Errorf("poly: candidate degree %d needs %d shares, have %d: %w",
				d, d+1, len(shares), ErrDegreeUnresolved)
		}
		v, err := InterpolateAtZero(f, shares[:d+1])
		if err != nil {
			return 0, err
		}
		if v.Sign() == 0 {
			return d, nil
		}
	}
	return 0, ErrDegreeUnresolved
}

// SumShares pointwise-adds share vectors of several polynomials evaluated
// at the same nodes, producing shares of the sum polynomial. Every vector
// must have the same nodes in the same order.
func SumShares(f *field.Field, vectors ...[]Share) ([]Share, error) {
	if len(vectors) == 0 {
		return nil, errors.New("poly: no share vectors")
	}
	n := len(vectors[0])
	out := make([]Share, n)
	for i := 0; i < n; i++ {
		node := vectors[0][i].Node
		acc := new(big.Int)
		for v, vec := range vectors {
			if len(vec) != n {
				return nil, fmt.Errorf("poly: share vector %d has length %d, want %d", v, len(vec), n)
			}
			if f.Reduce(vec[i].Node).Cmp(f.Reduce(node)) != 0 {
				return nil, fmt.Errorf("poly: share vector %d node %d mismatch", v, i)
			}
			acc = f.Add(acc, vec[i].Value)
		}
		out[i] = Share{Node: new(big.Int).Set(node), Value: acc}
	}
	return out, nil
}
