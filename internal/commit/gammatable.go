package commit

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

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

// SharedGammaCache amortizes Gamma_{k,l} evaluations across the agents
// of one auction: every honest receiver evaluates the same public
// commitments at the same public pseudonyms, so without sharing the
// n agents compute an identical n×n table n times over — the dominant
// O(n²σ) verification cost repeated per agent. The cache is safe for
// concurrent use; cached values are immutable by the package-wide
// read-only contract on group elements.
//
// Sharing changes no verdict and no value, only who computes it, so
// runs that meter per-agent work (RunConfig.CountOps) must simply not
// attach a cache. Only the benchmark harness uses it: the engine shares tables.
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

// GammaTable lazily caches the Gamma_{k,l} evaluations (equation (8)'s
// right-hand side: agent l's Q-commitments evaluated at pseudonym k).
// The protocol consumes the same Gamma values twice per auction — once
// verifying the Lambda/Psi publications (equation (11)) and once
// verifying the winner-excluded pairs (equation (15) against (11)) — so
// caching halves the dominant O(n^2 sigma) verification cost.
// BenchmarkGammaCache quantifies the saving.
//
// A GammaTable is NOT safe for concurrent use.
type GammaTable struct {
	g      *group.Group
	powers [][]*big.Int // powers[k] = PowersOf(alpha_k, sigma)
	comms  []*Commitments
	vals   [][]*big.Int // vals[k][l], nil until computed
	// shared, when set via UseShared, consults and feeds a cross-agent
	// cache before computing locally.
	shared *SharedGammaCache
	// prod, rhs and mul are VerifyLambdaPsi's accumulators, kept here so
	// the 2n checks an agent runs per auction fold their products in place.
	prod, rhs big.Int
	mul       group.MulScratch
}

// UseShared attaches a cross-agent cache: At still fills this table's
// own (lock-free) local entries, but misses consult the cache first and
// computed values are published to it. All tables sharing one cache
// must be built over the same pseudonym powers.
func (t *GammaTable) UseShared(s *SharedGammaCache) { t.shared = s }

// NewGammaTable builds an empty cache over the published commitments and
// precomputed pseudonym powers.
func NewGammaTable(g *group.Group, comms []*Commitments, powers [][]*big.Int) (*GammaTable, error) {
	if len(comms) != len(powers) {
		return nil, fmt.Errorf("commit: %d commitment sets vs %d power vectors", len(comms), len(powers))
	}
	vals := make([][]*big.Int, len(powers))
	for k := range vals {
		vals[k] = make([]*big.Int, len(comms))
	}
	return &GammaTable{g: g, powers: powers, comms: comms, vals: vals}, nil
}

// At returns Gamma_{k,l}, computing and caching it on first use.
func (t *GammaTable) At(k, l int) (*big.Int, error) {
	if k < 0 || k >= len(t.vals) || l < 0 || l >= len(t.comms) {
		return nil, fmt.Errorf("commit: gamma index (%d,%d) out of range", k, l)
	}
	if v := t.vals[k][l]; v != nil {
		return v, nil
	}
	c := t.comms[l]
	if c == nil {
		return nil, errors.New("commit: missing commitments")
	}
	if t.shared != nil {
		if v, ok := t.shared.lookup(k, c); ok {
			t.vals[k][l] = v
			return v, nil
		}
	}
	v, err := c.Gamma(t.g, t.powers[k])
	if err != nil {
		return nil, err
	}
	if t.shared != nil {
		t.shared.store(k, c, v)
	}
	t.vals[k][l] = v
	return v, nil
}

// VerifyLambdaPsi is the cached variant of the package-level function:
// it checks prod_l Gamma_{k,l} = lambda*psi at pseudonym k, optionally
// excluding one agent's contribution (the second-price variant).
func (t *GammaTable) VerifyLambdaPsi(k int, lambda, psi *big.Int, exclude int) error {
	if lambda == nil || psi == nil {
		return errors.New("commit: nil lambda or psi")
	}
	prod := t.prod.SetUint64(1)
	for l := range t.comms {
		if l == exclude {
			continue
		}
		gamma, err := t.At(k, l)
		if err != nil {
			return err
		}
		t.g.MulInto(prod, prod, gamma, &t.mul)
	}
	// Both sides leave MulInto reduced into [0, p).
	if prod.Cmp(t.g.MulInto(&t.rhs, lambda, psi, &t.mul)) != 0 {
		return ErrLambdaPsiCheck
	}
	return nil
}
