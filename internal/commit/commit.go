// Package commit implements the Pedersen-style polynomial commitments of
// DMW's Bidding phase (step II.3) and the verification identities of the
// Allocating Tasks phase (equations (7)-(9), (11) and (13) of the paper).
//
// For an agent with encoded bid polynomials e, f, g, h and product
// v = e*f, the published commitment vectors are, for l = 1..sigma:
//
//	O_l = z1^{v_l} * z2^{c_l}   (product coefficients, blinded by g)
//	Q_l = z1^{a_l} * z2^{d_l}   (e coefficients padded with zeros, blinded by h)
//	R_l = z1^{b_l} * z2^{d_l}   (f coefficients padded with zeros, blinded by h)
//
// A receiver holding the share (e(alpha), f(alpha), g(alpha), h(alpha))
// verifies it against the commitments by checking
//
//	z1^{e(alpha) f(alpha)} z2^{g(alpha)} = prod_l O_l^{alpha^l}     (7)
//	z1^{e(alpha)} z2^{h(alpha)}          = prod_l Q_l^{alpha^l}     (8)
//	z1^{f(alpha)} z2^{h(alpha)}          = prod_l R_l^{alpha^l}     (9)
//
// which simultaneously proves the polynomials have degree at most sigma
// and zero constant terms (the vectors only cover l >= 1).
package commit

import (
	"errors"
	"fmt"
	"math/big"

	"dmw/internal/bidcode"
	"dmw/internal/field"
	"dmw/internal/group"
)

// Commitments is the triple of commitment vectors an agent publishes for
// one task. Each vector has exactly sigma elements; index l-1 holds the
// commitment to the coefficient of x^l.
type Commitments struct {
	O, Q, R []*big.Int
}

// Verification errors, one per protocol identity, so tests and the
// faithfulness experiments can assert which check caught a deviation.
var (
	ErrProductCheck    = errors.New("commit: product commitment check failed (eq 7)")
	ErrEShareCheck     = errors.New("commit: e-share commitment check failed (eq 8)")
	ErrFShareCheck     = errors.New("commit: f-share commitment check failed (eq 9)")
	ErrLambdaPsiCheck  = errors.New("commit: published Lambda*Psi inconsistent with commitments (eq 11)")
	ErrDisclosureCheck = errors.New("commit: disclosed f-shares inconsistent with commitments (eq 13)")
)

// New computes the commitment vectors for an encoded bid.
func New(g *group.Group, b *bidcode.EncodedBid, sigma int) (*Commitments, error) {
	if sigma < 1 {
		return nil, fmt.Errorf("commit: sigma = %d must be positive", sigma)
	}
	for _, p := range [4]struct {
		name string
		deg  int
	}{{"e", b.E.Degree()}, {"f", b.F.Degree()}, {"g", b.G.Degree()}, {"h", b.H.Degree()}} {
		if p.deg > sigma {
			return nil, fmt.Errorf("commit: polynomial %s has degree %d > sigma %d", p.name, p.deg, sigma)
		}
	}
	v := b.E.Mul(b.F)
	if v.Degree() > sigma {
		return nil, fmt.Errorf("commit: product degree %d > sigma %d", v.Degree(), sigma)
	}
	// One slab for the three vectors' elements; the coefficients are
	// read in place (CommitInto only reads its exponents).
	vecs := field.Pointers(g.Slab(3 * sigma))
	c := &Commitments{O: vecs[:sigma:sigma], Q: vecs[sigma : 2*sigma : 2*sigma], R: vecs[2*sigma:]}
	for l := 1; l <= sigma; l++ {
		g.CommitInto(c.O[l-1], v.CoeffView(l), b.G.CoeffView(l))
		g.CommitInto(c.Q[l-1], b.E.CoeffView(l), b.H.CoeffView(l))
		g.CommitInto(c.R[l-1], b.F.CoeffView(l), b.H.CoeffView(l))
	}
	return c, nil
}

// Sigma returns the length of the commitment vectors.
func (c *Commitments) Sigma() int { return len(c.O) }

// Validate checks structural well-formedness (equal lengths, no nils).
func (c *Commitments) Validate() error {
	if c == nil {
		return errors.New("commit: nil commitments")
	}
	if len(c.O) == 0 || len(c.O) != len(c.Q) || len(c.O) != len(c.R) {
		return fmt.Errorf("commit: vector lengths O=%d Q=%d R=%d", len(c.O), len(c.Q), len(c.R))
	}
	for i := range c.O {
		if c.O[i] == nil || c.Q[i] == nil || c.R[i] == nil {
			return fmt.Errorf("commit: nil element at index %d", i)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (c *Commitments) Clone() *Commitments {
	cp := &Commitments{
		O: make([]*big.Int, len(c.O)),
		Q: make([]*big.Int, len(c.Q)),
		R: make([]*big.Int, len(c.R)),
	}
	for i := range c.O {
		cp.O[i] = new(big.Int).Set(c.O[i])
		cp.Q[i] = new(big.Int).Set(c.Q[i])
		cp.R[i] = new(big.Int).Set(c.R[i])
	}
	return cp
}

// WireSize approximates the encoded size in bytes for cost accounting.
func (c *Commitments) WireSize() int {
	n := 0
	for _, vec := range [][]*big.Int{c.O, c.Q, c.R} {
		for _, e := range vec {
			if e != nil {
				n += (e.BitLen() + 7) / 8
			}
		}
	}
	return n
}

// PowersOf returns [alpha^1, alpha^2, ..., alpha^sigma] mod q, the exponent
// vector shared by all commitment evaluations at pseudonym alpha. The
// protocol engine reads the pseudonyms' powers from field.Nodes instead.
func PowersOf(f *field.Field, alpha *big.Int, sigma int) []*big.Int {
	return f.Powers(alpha, sigma)
}

// evalVector computes prod_l vec[l-1]^{alphaPowers[l-1]} mod p, i.e. the
// commitment vector "evaluated" at the pseudonym. It is a single
// sigma-term multi-exponentiation: one shared squaring chain instead of
// sigma independent square-and-multiply passes (see
// internal/group/multiexp.go and docs/PERFORMANCE.md).
func evalVector(g *group.Group, vec, alphaPowers []*big.Int) (*big.Int, error) {
	acc, err := g.MultiExp(vec, alphaPowers)
	if err != nil {
		return nil, fmt.Errorf("commit: %w", err)
	}
	return acc, nil
}

// OEval returns prod_l O_l^{alpha^l}, the right-hand side of equation (7).
func (c *Commitments) OEval(g *group.Group, alphaPowers []*big.Int) (*big.Int, error) {
	return evalVector(g, c.O, alphaPowers)
}

// Gamma returns Gamma_{i,k} = prod_l Q_l^{alpha_i^l}, the right-hand side
// of equation (8). It equals z1^{e(alpha)} z2^{h(alpha)} for an honest
// committer.
func (c *Commitments) Gamma(g *group.Group, alphaPowers []*big.Int) (*big.Int, error) {
	return evalVector(g, c.Q, alphaPowers)
}

// Phi returns Phi_{i,k} = prod_l R_l^{alpha_i^l}, the right-hand side of
// equation (9). It equals z1^{f(alpha)} z2^{h(alpha)} for an honest
// committer.
func (c *Commitments) Phi(g *group.Group, alphaPowers []*big.Int) (*big.Int, error) {
	return evalVector(g, c.R, alphaPowers)
}

// VerifyShare checks a received share against the sender's commitments at
// the receiver's pseudonym (equations (7)-(9), step III.1). alphaPowers
// must be PowersOf(alpha, sigma) for the receiver's own pseudonym.
func (c *Commitments) VerifyShare(g *group.Group, alphaPowers []*big.Int, s bidcode.Share) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if s.E == nil || s.F == nil || s.G == nil || s.H == nil {
		return errors.New("commit: incomplete share")
	}
	f := g.Scalars()

	// Equation (7): z1^{e*f} z2^{g} = prod O^{alpha^l}.
	lhs := g.Commit(f.Mul(s.E, s.F), s.G)
	rhs, err := c.OEval(g, alphaPowers)
	if err != nil {
		return err
	}
	if !g.Equal(lhs, rhs) {
		return ErrProductCheck
	}

	// Equation (8): z1^{e} z2^{h} = Gamma.
	lhs = g.Commit(s.E, s.H)
	rhs, err = c.Gamma(g, alphaPowers)
	if err != nil {
		return err
	}
	if !g.Equal(lhs, rhs) {
		return ErrEShareCheck
	}

	// Equation (9): z1^{f} z2^{h} = Phi.
	lhs = g.Commit(s.F, s.H)
	rhs, err = c.Phi(g, alphaPowers)
	if err != nil {
		return err
	}
	if !g.Equal(lhs, rhs) {
		return ErrFShareCheck
	}
	return nil
}
