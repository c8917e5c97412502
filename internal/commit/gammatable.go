package commit

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"dmw/internal/field"
	"dmw/internal/group"
)

// gammaKey identifies one Gamma value by pseudonym index and the exact
// commitments OBJECT it was computed from. Keying on object identity —
// not agent index — is what keeps cross-agent sharing sound: receivers
// that hold the same broadcast *Commitments share the cached value,
// while an equivocating sender that handed receivers different objects
// gets a separate (honestly computed) entry per object, preserving
// per-receiver verification semantics exactly.
type gammaKey struct {
	k int
	c *Commitments
}

// SharedGammaCache memoizes GammaTable.At's evaluations across tables;
// only the benchmark harness attaches one. It is safe for concurrent use;
// cached values are immutable by the package-wide read-only contract on
// group elements.
type SharedGammaCache struct {
	mu   sync.Mutex
	vals map[gammaKey]*big.Int
}

// NewSharedGammaCache returns an empty cache, typically one per
// auction task.
func NewSharedGammaCache() *SharedGammaCache {
	return &SharedGammaCache{vals: make(map[gammaKey]*big.Int)}
}

func (s *SharedGammaCache) lookup(k int, c *Commitments) (*big.Int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vals[gammaKey{k, c}]
	return v, ok
}

// store publishes a computed value. Two agents racing to compute the
// same entry both computed the same immutable value, so last-write-wins
// is harmless.
func (s *SharedGammaCache) store(k int, c *Commitments, v *big.Int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[gammaKey{k, c}] = v
}

// GammaTable checks published values against one vector of commitments
// by equations (11) and (13). Exponents commute, so
//
//	prod_{l != x} Gamma_{k,l} = prod_{l != x} prod_j Q_{l,j}^{alpha_k^j}
//	                          = prod_j C_j^{alpha_k^j},  C_j = prod_{l != x} Q_{l,j}
//
// and the table folds the column products C_j once per excluded agent x
// (R's once, for equation (13)), then checks each published value with
// one sigma-term multi-exponentiation: O(n sigma) terms per verifier, not
// the O(n^2 sigma) of evaluating every Gamma_{k,l}, with the same element
// mod p on both sides. An auction folds three vectors: Q's with no agent
// and with the winner excluded, and R's. A GammaTable is NOT safe for
// concurrent use.
type GammaTable struct {
	g      *group.Group
	powers [][]*big.Int // powers[k] = PowersOf(alpha_k, sigma)
	comms  []*Commitments
	cols   []columns
	shared *SharedGammaCache // At's, when set via UseShared
	// rhs and mul are VerifyLambdaPsi's product and the folds' scratch.
	rhs big.Int
	mul group.MulScratch
}

// columns is one vector of column products and the excluded agent
// behind it, or the error that stopped its fold.
type columns struct {
	r       bool // R's columns (equation (13)), not Q's (equation (11))
	exclude int
	vals    []*big.Int
	err     error
}

// UseShared attaches a cross-table cache to At. All tables sharing one
// cache must be built over the same pseudonym powers.
func (t *GammaTable) UseShared(s *SharedGammaCache) { t.shared = s }

// NewGammaTable builds an empty table over the published commitments and
// precomputed pseudonym powers.
func NewGammaTable(g *group.Group, comms []*Commitments, powers [][]*big.Int) (*GammaTable, error) {
	if len(comms) != len(powers) {
		return nil, fmt.Errorf("commit: %d commitment sets vs %d power vectors", len(comms), len(powers))
	}
	return &GammaTable{g: g, powers: powers, comms: comms}, nil
}

// At evaluates Gamma_{k,l}, agent l's Q-commitments at pseudonym k (the
// right-hand side of equation (8)), through the shared cache when one is
// attached. The verification identities do not call it.
func (t *GammaTable) At(k, l int) (*big.Int, error) {
	if k < 0 || k >= len(t.powers) || l < 0 || l >= len(t.comms) {
		return nil, fmt.Errorf("commit: gamma index (%d,%d) out of range", k, l)
	}
	c := t.comms[l]
	if c == nil {
		return nil, errors.New("commit: missing commitments")
	}
	if t.shared != nil {
		if v, ok := t.shared.lookup(k, c); ok {
			return v, nil
		}
	}
	v, err := c.Gamma(t.g, t.powers[k])
	if err == nil && t.shared != nil {
		t.shared.store(k, c, v)
	}
	return v, err
}

// columns returns the column products of every agent's Q vector (R's when
// r is set) but exclude's, folding them on first use.
func (t *GammaTable) columns(r bool, exclude, sigma int) ([]*big.Int, error) {
	for _, c := range t.cols {
		if c.r == r && c.exclude == exclude {
			return c.vals, c.err
		}
	}
	c := columns{r: r, exclude: exclude, vals: field.Pointers(t.g.Slab(sigma))}
	for _, v := range c.vals {
		v.SetUint64(1)
	}
	for l := 0; l < len(t.comms) && c.err == nil; l++ {
		if l != exclude {
			c.err = t.fold(c.vals, t.comms[l], r)
		}
	}
	t.cols = append(t.cols, c)
	return c.vals, c.err
}

// fold multiplies cm's Q vector (R's when r is set) into cols, entry by
// entry.
func (t *GammaTable) fold(cols []*big.Int, cm *Commitments, r bool) error {
	if cm == nil {
		return errors.New("commit: missing commitments")
	}
	vec := cm.Q
	if r {
		vec = cm.R
	}
	if len(vec) != len(cols) {
		return fmt.Errorf("commit: vector length %d != powers length %d", len(vec), len(cols))
	}
	for j, v := range vec {
		if v == nil {
			return fmt.Errorf("commit: nil commitment at index %d", j)
		}
		t.g.MulInto(cols[j], cols[j], v, &t.mul)
	}
	return nil
}

// eval returns prod_j cols[j]^{powers[k][j]}: the product over the
// agents behind cols of their vectors evaluated at pseudonym k.
func (t *GammaTable) eval(k int, r bool, exclude int) (*big.Int, error) {
	if k < 0 || k >= len(t.powers) {
		return nil, fmt.Errorf("commit: pseudonym index %d out of range", k)
	}
	cols, err := t.columns(r, exclude, len(t.powers[k]))
	if err != nil {
		return nil, err
	}
	prod, err := t.g.MultiExp(cols, t.powers[k])
	if err != nil {
		return nil, fmt.Errorf("commit: %w", err)
	}
	return prod, nil
}

// VerifyLambdaPsi checks a published pair (Lambda_k, Psi_k) against the
// product of all agents' Gamma values at alpha_k (equation (11)):
//
//	prod_l Gamma_{k,l} = Lambda_k * Psi_k
//
// exclude, when >= 0, omits that agent's commitments from the product;
// this is the second-price variant of step III.4 (equation (15)), where
// the winner's contribution is divided out.
func (t *GammaTable) VerifyLambdaPsi(k int, lambda, psi *big.Int, exclude int) error {
	if lambda == nil || psi == nil {
		return errors.New("commit: nil lambda or psi")
	}
	prod, err := t.eval(k, false, exclude)
	if err != nil {
		return err
	}
	// Both sides are reduced into [0, p).
	if prod.Cmp(t.g.MulInto(&t.rhs, lambda, psi, &t.mul)) != 0 {
		return ErrLambdaPsiCheck
	}
	return nil
}

// VerifyDisclosure checks winner-identification disclosures (equation
// (13)): agent k has disclosed the f-shares it received, f_l(alpha_k) for
// every sender l; their sum F(alpha_k) must satisfy
//
//	z1^{F(alpha_k)} * Psi_k = prod_l Phi_{k,l}
//
// where Psi_k is the value agent k published in step III.2 and the Phi
// values are the senders' R-commitments evaluated at alpha_k.
func (t *GammaTable) VerifyDisclosure(k int, fShares []*big.Int, psi *big.Int) error {
	if len(fShares) != len(t.comms) {
		return fmt.Errorf("commit: %d disclosed shares for %d agents", len(fShares), len(t.comms))
	}
	if psi == nil {
		return errors.New("commit: nil psi")
	}
	f := t.g.Scalars()
	var sum big.Int
	var sc field.Scratch
	for _, s := range fShares {
		if s == nil {
			return errors.New("commit: nil disclosed share")
		}
		f.AddInto(&sum, &sum, s, &sc)
	}
	prod, err := t.eval(k, true, -1)
	if err != nil {
		return err
	}
	if !t.g.Equal(t.g.Mul(t.g.Pow1(&sum), psi), prod) {
		return ErrDisclosureCheck
	}
	return nil
}

// VerifyLambdaPsi is GammaTable.VerifyLambdaPsi at one pseudonym, whose
// powers are alphaPowers.
func VerifyLambdaPsi(g *group.Group, all []*Commitments, alphaPowers []*big.Int, lambda, psi *big.Int, exclude int) error {
	return oneTable(g, all, alphaPowers).VerifyLambdaPsi(0, lambda, psi, exclude)
}

// VerifyDisclosure is GammaTable.VerifyDisclosure at one pseudonym, whose
// powers are alphaPowers.
func VerifyDisclosure(g *group.Group, all []*Commitments, alphaPowers []*big.Int, fShares []*big.Int, psi *big.Int) error {
	return oneTable(g, all, alphaPowers).VerifyDisclosure(0, fShares, psi)
}

func oneTable(g *group.Group, all []*Commitments, alphaPowers []*big.Int) *GammaTable {
	return &GammaTable{g: g, comms: all, powers: [][]*big.Int{alphaPowers}}
}
