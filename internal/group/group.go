// Package group implements the Schnorr group arithmetic used by DMW's
// cryptographic layer.
//
// The protocol parameters are two large primes p and q with q | p-1, and
// two distinct generators z1, z2 of the order-q subgroup of Z_p^*
// (Section 3, "Notation" in the paper). Commitments are Pedersen-style
// products z1^x * z2^r (mod p) with exponents in Z_q.
//
// A Group optionally carries an operation counter so experiments can
// account for modular exponentiations and multiplications, which dominate
// the computational cost bounded by Theorem 12.
package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync/atomic"
	"time"

	"dmw/internal/field"
	"dmw/internal/mont"
)

// Params holds the public group parameters published in Phase I of DMW.
type Params struct {
	// P is the large prime modulus of the ambient group Z_p^*.
	P *big.Int
	// Q is the prime order of the subgroup generated by Z1 and Z2;
	// Q divides P-1.
	Q *big.Int
	// Z1 and Z2 are distinct generators of the order-Q subgroup.
	Z1 *big.Int
	// Z2 must have an unknown discrete log relative to Z1 for the
	// commitments to be binding against a computationally bounded
	// adversary; Generate derives both from independent random seeds.
	Z2 *big.Int
}

// Validate checks the structural invariants of the parameters: p, q prime,
// q | p-1, and z1, z2 distinct non-identity elements of order q.
func (pr *Params) Validate() error {
	if pr == nil || pr.P == nil || pr.Q == nil || pr.Z1 == nil || pr.Z2 == nil {
		return errors.New("group: incomplete parameters")
	}
	if !pr.P.ProbablyPrime(32) {
		return fmt.Errorf("group: p = %v is not prime", pr.P)
	}
	if !pr.Q.ProbablyPrime(32) {
		return fmt.Errorf("group: q = %v is not prime", pr.Q)
	}
	pm1 := new(big.Int).Sub(pr.P, big.NewInt(1))
	if new(big.Int).Mod(pm1, pr.Q).Sign() != 0 {
		return errors.New("group: q does not divide p-1")
	}
	one := big.NewInt(1)
	for name, z := range map[string]*big.Int{"z1": pr.Z1, "z2": pr.Z2} {
		if z.Cmp(one) <= 0 || z.Cmp(pr.P) >= 0 {
			return fmt.Errorf("group: %s out of range", name)
		}
		if new(big.Int).Exp(z, pr.Q, pr.P).Cmp(one) != 0 {
			return fmt.Errorf("group: %s does not have order q", name)
		}
	}
	if pr.Z1.Cmp(pr.Z2) == 0 {
		return errors.New("group: z1 and z2 must be distinct")
	}
	return nil
}

// Equal reports whether two parameter sets describe the same group
// (identical p, q, z1, z2). Either side may be nil; two nils are equal.
func (pr *Params) Equal(o *Params) bool {
	if pr == nil || o == nil {
		return pr == o
	}
	if pr == o {
		return true
	}
	for _, pair := range [][2]*big.Int{{pr.P, o.P}, {pr.Q, o.Q}, {pr.Z1, o.Z1}, {pr.Z2, o.Z2}} {
		a, b := pair[0], pair[1]
		if a == nil || b == nil {
			if a != b {
				return false
			}
			continue
		}
		if a.Cmp(b) != 0 {
			return false
		}
	}
	return true
}

// Generate creates fresh Schnorr group parameters with a modulus of the
// requested bit length. qBits controls the subgroup order size; if qBits
// <= 0 a default of pBits-8 is used (the simulation regime; production
// deployments would pick e.g. p=2048, q=256). src defaults to crypto/rand.
func Generate(pBits, qBits int, src io.Reader) (*Params, error) {
	if pBits < 16 {
		return nil, fmt.Errorf("group: pBits = %d too small (min 16)", pBits)
	}
	if qBits <= 0 {
		qBits = pBits - 8
	}
	if qBits >= pBits {
		return nil, fmt.Errorf("group: qBits = %d must be < pBits = %d", qBits, pBits)
	}
	if src == nil {
		src = rand.Reader
	}
	one := big.NewInt(1)
	for attempt := 0; attempt < 4096; attempt++ {
		q, err := randPrime(src, qBits)
		if err != nil {
			return nil, err
		}
		// Search even cofactors k so that p = k*q + 1 is prime and has
		// the requested bit length: k starts at ceil(2^(pBits-1)/q)
		// rounded up to even, so k*q+1 lands in [2^(pBits-1), 2^pBits).
		lo := new(big.Int).Lsh(one, uint(pBits-1))
		kBig := new(big.Int).Div(lo, q)
		kBig.Add(kBig, big.NewInt(2))
		kBig.And(kBig, new(big.Int).Not(one)) // clear low bit: make even
		if kBig.BitLen() > 62 {
			return nil, fmt.Errorf("group: p/q bit gap %d too large", pBits-qBits)
		}
		kStart := kBig.Int64()
		if kStart < 2 {
			kStart = 2
		}
		for k, tries := kStart, 0; tries < 8192; k, tries = k+2, tries+1 {
			p := new(big.Int).Mul(q, big.NewInt(k))
			p.Add(p, one)
			if p.BitLen() != pBits {
				if p.BitLen() > pBits {
					break
				}
				continue
			}
			if !p.ProbablyPrime(32) {
				continue
			}
			z1, err := subgroupGenerator(p, q, src)
			if err != nil {
				return nil, err
			}
			var z2 *big.Int
			for {
				z2, err = subgroupGenerator(p, q, src)
				if err != nil {
					return nil, err
				}
				if z2.Cmp(z1) != 0 {
					break
				}
			}
			pr := &Params{P: p, Q: q, Z1: z1, Z2: z2}
			if err := pr.Validate(); err != nil {
				return nil, fmt.Errorf("group: generated invalid parameters: %w", err)
			}
			return pr, nil
		}
	}
	return nil, errors.New("group: failed to find parameters (too many attempts)")
}

// randPrime draws a random prime with exactly bits bits from src.
func randPrime(src io.Reader, bits int) (*big.Int, error) {
	p, err := rand.Prime(src, bits)
	if err != nil {
		return nil, fmt.Errorf("group: generating %d-bit prime: %w", bits, err)
	}
	return p, nil
}

// subgroupGenerator returns a uniformly random generator of the order-q
// subgroup of Z_p^* by exponentiating a random base to the cofactor.
func subgroupGenerator(p, q *big.Int, src io.Reader) (*big.Int, error) {
	one := big.NewInt(1)
	cofactor := new(big.Int).Sub(p, one)
	cofactor.Div(cofactor, q)
	for {
		h, err := rand.Int(src, new(big.Int).Sub(p, big.NewInt(3)))
		if err != nil {
			return nil, fmt.Errorf("group: drawing generator base: %w", err)
		}
		h.Add(h, big.NewInt(2)) // h in [2, p-1)
		z := new(big.Int).Exp(h, cofactor, p)
		if z.Cmp(one) != 0 {
			return z, nil
		}
	}
}

// Counter accumulates group operation counts. All methods are safe for
// concurrent use. The zero value is ready to use.
//
// Multi-exponentiations are attributed honestly: a MultiExp over t terms
// adds t to the exponentiation counter (it replaces t independent Exp
// calls, keeping Theorem 12's accounting comparable across engine
// versions) and additionally bumps the dedicated multi-exp call/term
// counters so the collapse itself stays observable.
type Counter struct {
	exp           atomic.Uint64
	mul           atomic.Uint64
	multiExpCalls atomic.Uint64
	multiExpTerms atomic.Uint64
}

// Exp returns the number of modular exponentiations recorded
// (exponentiation-equivalents: multi-exp terms included).
func (c *Counter) Exp() uint64 { return c.exp.Load() }

// Mul returns the number of modular multiplications/inversions recorded.
func (c *Counter) Mul() uint64 { return c.mul.Load() }

// MultiExps returns the number of MultiExp invocations recorded.
func (c *Counter) MultiExps() uint64 { return c.multiExpCalls.Load() }

// MultiExpTerms returns the total number of terms across all recorded
// MultiExp invocations (each term is one collapsed exponentiation).
func (c *Counter) MultiExpTerms() uint64 { return c.multiExpTerms.Load() }

// Reset zeroes all counters.
func (c *Counter) Reset() {
	c.exp.Store(0)
	c.mul.Store(0)
	c.multiExpCalls.Store(0)
	c.multiExpTerms.Store(0)
}

// Add accumulates another counter's totals into c.
func (c *Counter) Add(o *Counter) {
	c.exp.Add(o.exp.Load())
	c.mul.Add(o.mul.Load())
	c.multiExpCalls.Add(o.multiExpCalls.Load())
	c.multiExpTerms.Add(o.multiExpTerms.Load())
}

// Group binds parameters to an exponent field and an optional operation
// counter. Group methods never mutate their arguments.
type Group struct {
	params  *Params
	scalars *field.Field
	counter *Counter // nil means "do not count"
	// mont is the Montgomery context for arithmetic mod P, shared by the
	// fixed-base tables and the multi-exponentiation engine.
	mont *mont.Ctx
	// Precomputed fixed-base tables for the generators (see
	// fixedbase.go); shared across WithCounter views. jb is the joint
	// Shamir-trick table for the pair (z1, z2) serving Commit.
	fb1, fb2 *fixedBase
	jb       *jointBase
	// buildTime is the wall-clock cost of New building the Montgomery
	// context and the three precomputed tables; /healthz and /metrics
	// surface it as the boot-time table build cost.
	buildTime time.Duration
}

// New constructs a Group from validated parameters.
func New(pr *Params) (*Group, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	f, err := field.New(pr.Q)
	if err != nil {
		return nil, fmt.Errorf("group: exponent field: %w", err)
	}
	t0 := time.Now()
	m := mont.New(pr.P)
	fb1 := newFixedBase(m, pr.Z1, pr.Q)
	fb2 := newFixedBase(m, pr.Z2, pr.Q)
	jb := newJointBase(fb1, fb2)
	return &Group{
		params:    pr,
		scalars:   f,
		mont:      m,
		fb1:       fb1,
		fb2:       fb2,
		jb:        jb,
		buildTime: time.Since(t0),
	}, nil
}

// MustNew is like New but panics on error; intended for presets and tests.
func MustNew(pr *Params) *Group {
	g, err := New(pr)
	if err != nil {
		panic(err)
	}
	return g
}

// WithCounter returns a shallow view of g that records operations into c.
// The underlying parameters and scalar field are shared.
func (g *Group) WithCounter(c *Counter) *Group {
	return &Group{
		params: g.params, scalars: g.scalars, counter: c,
		mont: g.mont, fb1: g.fb1, fb2: g.fb2, jb: g.jb,
		buildTime: g.buildTime,
	}
}

// TableBuildTime reports how long New took to build the Montgomery
// context and the precomputed tables.
func (g *Group) TableBuildTime() time.Duration { return g.buildTime }

// Params returns the group parameters (shared, callers must not mutate).
func (g *Group) Params() *Params { return g.params }

// Scalars returns the exponent field Z_q.
func (g *Group) Scalars() *field.Field { return g.scalars }

// P returns the modulus (shared; do not mutate).
func (g *Group) P() *big.Int { return g.params.P }

func (g *Group) countExp() {
	if g.counter != nil {
		g.counter.exp.Add(1)
	}
}

func (g *Group) countMul() {
	if g.counter != nil {
		g.counter.mul.Add(1)
	}
}

// countMultiExp attributes a multi-exponentiation over terms bases: the
// term count feeds the exp counter (Theorem-12 equivalents) plus the
// dedicated multi-exp counters.
func (g *Group) countMultiExp(terms int) {
	if g.counter != nil {
		g.counter.exp.Add(uint64(terms))
		g.counter.multiExpCalls.Add(1)
		g.counter.multiExpTerms.Add(uint64(terms))
	}
}

// One returns the group identity.
func (g *Group) One() *big.Int { return big.NewInt(1) }

// IsOne reports whether a is the identity element.
func (g *Group) IsOne(a *big.Int) bool {
	c := g.canon(a)
	return c.IsUint64() && c.Uint64() == 1
}

// inRange reports whether a lies in [0, p).
func (g *Group) inRange(a *big.Int) bool {
	return a.Sign() >= 0 && a.Cmp(g.params.P) < 0
}

// canon returns a mod p, and a itself when it already lies in [0, p) —
// which every element this package produces does.
func (g *Group) canon(a *big.Int) *big.Int {
	if g.inRange(a) {
		return a
	}
	return new(big.Int).Mod(a, g.params.P)
}

// Mul returns a*b mod p.
func (g *Group) Mul(a, b *big.Int) *big.Int {
	var s MulScratch
	return g.MulInto(new(big.Int), a, b, &s)
}

// MulScratch is the working storage of MulInto: the Montgomery staging
// words, and for operands outside [0, p) the unreduced product and the
// quotient the reduction discards. The zero value is ready to use; it
// must not be shared between goroutines.
type MulScratch struct {
	m      mont.Scratch
	t, quo big.Int
}

// MulInto sets z = a*b mod p and returns z, counting one multiplication.
// Operands in [0, p) — every element this package produces — take two
// Montgomery kernel calls and no division, up to mont.MaxPlainWords
// words of p. A caller folding a product chain into one accumulator
// reuses z and s and allocates nothing once they have grown. z may alias
// a or b.
func (g *Group) MulInto(z, a, b *big.Int, s *MulScratch) *big.Int {
	g.countMul()
	if g.mont.Words() <= mont.MaxPlainWords && g.inRange(a) && g.inRange(b) {
		return g.mont.MulInto(z, a, b, &s.m)
	}
	t := z
	if z == a || z == b {
		t = &s.t // big.Int.Mul would allocate to multiply into an operand
	}
	s.quo.QuoRem(t.Mul(a, b), g.params.P, z)
	if z.Sign() < 0 { // QuoRem truncates; Mod is Euclidean
		z.Add(z, g.params.P)
	}
	return z
}

// Inv returns the inverse of a mod p. It returns an error when a is not a
// unit mod p (only possible for a = 0 mod p, since p is prime).
func (g *Group) Inv(a *big.Int) (*big.Int, error) {
	g.countMul()
	r := new(big.Int).Mod(a, g.params.P)
	if r.Sign() == 0 {
		return nil, errors.New("group: zero has no inverse")
	}
	return r.ModInverse(r, g.params.P), nil
}

// Div returns a/b mod p.
func (g *Group) Div(a, b *big.Int) (*big.Int, error) {
	bi, err := g.Inv(b)
	if err != nil {
		return nil, err
	}
	return g.Mul(a, bi), nil
}

// Exp returns base^e mod p. The exponent is reduced mod q first, which is
// valid because every base used by the protocol has order q.
func (g *Group) Exp(base, e *big.Int) *big.Int {
	g.countExp()
	return new(big.Int).Exp(base, g.scalars.Reduce(e), g.params.P)
}

// Pow1 returns z1^e mod p using the precomputed fixed-base table.
func (g *Group) Pow1(e *big.Int) *big.Int {
	g.countExp()
	return g.fb1.exp(g.reduced(e))
}

// Pow2 returns z2^e mod p using the precomputed fixed-base table.
func (g *Group) Pow2(e *big.Int) *big.Int {
	g.countExp()
	return g.fb2.exp(g.reduced(e))
}

// Commit returns the Pedersen commitment z1^x * z2^r mod p, computed in
// one interleaved pass over the joint (z1, z2) fixed-base table (Shamir's
// trick) — half the multiplications of Pow1 + Pow2 + Mul. For accounting
// it is attributed as a 2-term multi-exponentiation.
func (g *Group) Commit(x, r *big.Int) *big.Int {
	return g.CommitInto(new(big.Int), x, r)
}

// CommitInto sets z = z1^x * z2^r mod p as Commit computes it, writing
// into z's own words, and returns z. z may alias x or r: it is written
// after both are read.
func (g *Group) CommitInto(z, x, r *big.Int) *big.Int {
	g.countMultiExp(2)
	return g.jb.commit(z, g.reduced(x), g.reduced(r))
}

// Slab returns n zero elements over one header slab and one word slab,
// each with room for an element of [0, p) as the Montgomery kernel writes
// it (see field.NewSlab).
func (g *Group) Slab(n int) []big.Int {
	return field.NewSlab(n, g.mont.Words()*(64/bits.UintSize))
}

// reduced returns e mod q, and e itself when it already lies in [0, q):
// the fixed-base engines only read their exponents.
func (g *Group) reduced(e *big.Int) *big.Int {
	if e.Sign() >= 0 && e.Cmp(g.params.Q) < 0 {
		return e
	}
	return g.scalars.Reduce(e)
}

// Equal reports whether two elements are equal mod p.
func (g *Group) Equal(a, b *big.Int) bool {
	return g.canon(a).Cmp(g.canon(b)) == 0
}
