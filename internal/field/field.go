// Package field implements arithmetic in the prime-order scalar field Z_q
// used for all exponent arithmetic in the DMW protocol.
//
// In the protocol of Carroll and Grosu, bids are encoded in the degree of
// random polynomials whose coefficients are scalars, and all verification
// identities compare exponents of the order-q generators z1, z2 of the
// Schnorr group. Every exponent therefore lives in Z_q, which this package
// models. Group (mod p) arithmetic lives in package group.
//
// A Field value is immutable after construction and safe for concurrent use.
//
// Arithmetic comes in two layers. The in-place kernel (ReduceInto, AddInto,
// SubInto, MulInto, MulAddInto, HornerInto, InnerProductInto, InvBatch) writes
// into a destination the caller owns and takes a Scratch for its
// temporaries, so a loop that keeps one accumulator and one Scratch
// allocates nothing in steady state; a destination may alias an argument.
// The value-returning methods (Reduce, Add, Sub, Neg, Mul, ...) are thin
// wrappers that run the same kernel into a fresh big.Int. Neither layer
// mutates an argument it was not handed as the destination. Random draws
// (RandInto, RandNonZeroInto) are in place too, and Slab hands out many
// destinations at the cost of one header slab and one word slab.
//
// Operands already in [0, q) — everything the kernel itself returns —
// take the division-free path: products run on a Montgomery context over
// q (package mont) up to mont.MaxPlainWords words of q, and sums and
// differences need one conditional subtraction or addition. Any other
// operand (negative, q or larger) takes the big.Int reduction, with the
// same result.
package field

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"dmw/internal/mont"
)

// Field is the prime field Z_q. The zero value is unusable; construct one
// with New.
type Field struct {
	q   *big.Int
	qm1 *big.Int  // q-1, the exclusive bound RandNonZero draws below
	m   *mont.Ctx // products of reduced operands; nil for q = 2 and wide q
	// The draw sizes crypto/rand.Int derives on every call, at a cost of
	// one allocation: bitlen(q-1) for the bound q, bitlen(q-2) for q-1.
	randBits, unitBits int
	words              int // big.Words of a reduced element as the kernel writes it
}

var one = big.NewInt(1)

var (
	// ErrNotPrime is returned by New when the proposed modulus fails the
	// probabilistic primality test.
	ErrNotPrime = errors.New("field: modulus is not prime")

	// ErrNoInverse is returned when inverting an element that is not a
	// unit (i.e. zero mod q).
	ErrNoInverse = errors.New("field: element has no multiplicative inverse")

	// ErrDuplicatePoint is returned by LagrangeAtZero when two
	// interpolation nodes coincide, which makes the Lagrange basis
	// undefined.
	ErrDuplicatePoint = errors.New("field: duplicate interpolation node")

	// ErrZeroPoint is returned when an interpolation node is zero; the
	// protocol interpolates at zero, so zero is never a valid node.
	ErrZeroPoint = errors.New("field: interpolation node must be nonzero")
)

// New constructs the field Z_q. The modulus must be a prime of at least two
// bits. New copies q, so callers may reuse the argument.
func New(q *big.Int) (*Field, error) {
	if q == nil {
		return nil, errors.New("field: nil modulus")
	}
	if q.BitLen() < 2 {
		return nil, fmt.Errorf("field: modulus %v too small", q)
	}
	if !q.ProbablyPrime(32) {
		return nil, ErrNotPrime
	}
	f := &Field{q: new(big.Int).Set(q), qm1: new(big.Int).Sub(q, big.NewInt(1))}
	f.randBits = f.qm1.BitLen()
	f.unitBits = new(big.Int).Sub(f.qm1, one).BitLen()
	f.words = len(f.q.Bits())
	if q.Bit(0) == 1 {
		if m := mont.New(f.q); m.Words() <= mont.MaxPlainWords {
			f.m = m
			// The Montgomery kernel writes all of its uint64 limbs,
			// two big.Words each on 32-bit targets.
			f.words = m.Words() * (64 / bits.UintSize)
		}
	}
	return f, nil
}

// MustNew is like New but panics on error. It is intended for package-level
// test fixtures and presets whose moduli are known-good constants.
func MustNew(q *big.Int) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Q returns a copy of the field modulus.
func (f *Field) Q() *big.Int { return new(big.Int).Set(f.q) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.q.BitLen() }

// Scratch is the working storage of the in-place kernel: the Montgomery
// staging words, for operands outside [0, q) the unreduced product and
// the quotient that reduction discards, and HornerInto's unreduced
// accumulator. The zero value is ready to use. A Scratch must not be
// shared between goroutines; a hot loop holds one for its duration so
// that, once the backing words have grown to the operand size, the
// arithmetic allocates nothing.
type Scratch struct {
	m           mont.Scratch
	t, quo, acc big.Int
	rb          []byte // the bytes of a random draw
}

// Slab returns n zero elements backed by one header slab and one word
// slab, each with room for the words the kernel writes into a reduced
// element: a caller that needs many destinations pays two allocations,
// not one or two per element.
func (f *Field) Slab(n int) []big.Int { return NewSlab(n, f.words) }

// NewSlab returns n zero big.Ints over one slab of n*words words. A full
// slice expression caps each element at its own words: an operation that
// needs more (big.Int.Add wants a spare word for the carry, a big.Int
// product twice the width) moves that element to fresh words instead of
// growing into its neighbour's.
func NewSlab(n, words int) []big.Int {
	hs := make([]big.Int, n)
	ws := make([]big.Word, n*words)
	for i := range hs {
		hs[i].SetBits(ws[i*words : i*words : (i+1)*words])
	}
	return hs
}

// Pointers returns a pointer to each element of slab, for the APIs that
// take vectors of *big.Int.
func Pointers(slab []big.Int) []*big.Int {
	ps := make([]*big.Int, len(slab))
	for i := range slab {
		ps[i] = &slab[i]
	}
	return ps
}

// reduced reports whether x lies in [0, q).
func (f *Field) reduced(x *big.Int) bool {
	return x.Sign() >= 0 && x.Cmp(f.q) < 0
}

// ReduceInto sets z = x mod q in [0, q) and returns z. z may alias x.
func (f *Field) ReduceInto(z, x *big.Int, s *Scratch) *big.Int {
	if f.reduced(x) {
		return z.Set(x)
	}
	// QuoRem truncates toward zero, so a negative x leaves a remainder in
	// (-q, 0]; Mod's Euclidean result is one modulus higher.
	s.quo.QuoRem(x, f.q, z)
	if z.Sign() < 0 {
		z.Add(z, f.q)
	}
	return z
}

// AddInto sets z = a+b mod q and returns z. z may alias a or b.
func (f *Field) AddInto(z, a, b *big.Int, s *Scratch) *big.Int {
	if f.reduced(a) && f.reduced(b) {
		if z.Add(a, b).Cmp(f.q) >= 0 {
			z.Sub(z, f.q)
		}
		return z
	}
	return f.ReduceInto(z, z.Add(a, b), s)
}

// SubInto sets z = a-b mod q and returns z. z may alias a or b.
func (f *Field) SubInto(z, a, b *big.Int, s *Scratch) *big.Int {
	if f.reduced(a) && f.reduced(b) {
		if z.Sub(a, b).Sign() < 0 {
			z.Add(z, f.q)
		}
		return z
	}
	return f.ReduceInto(z, z.Sub(a, b), s)
}

// MulInto sets z = a*b mod q and returns z. z may alias a or b: the
// product is then staged in s (big.Int.Mul would allocate a temporary to
// multiply into an operand).
func (f *Field) MulInto(z, a, b *big.Int, s *Scratch) *big.Int {
	if f.m != nil && f.reduced(a) && f.reduced(b) {
		return f.m.MulInto(z, a, b, &s.m)
	}
	t := z
	if z == a || z == b {
		t = &s.t
	}
	return f.ReduceInto(z, t.Mul(a, b), s)
}

// MulAddInto sets z = a*b + c mod q and returns z: one Horner step with a
// single reduction. z may alias any argument.
func (f *Field) MulAddInto(z, a, b, c *big.Int, s *Scratch) *big.Int {
	if f.m != nil && f.reduced(a) && f.reduced(b) && f.reduced(c) {
		return f.m.MulAddInto(z, a, b, c, &s.m)
	}
	t := z
	if z == a || z == b || z == c {
		t = &s.t
	}
	t.Mul(a, b)
	return f.ReduceInto(z, t.Add(t, c), s)
}

// HornerInto sets z = coeffs[0] + coeffs[1] x + ... + coeffs[d] x^d mod q
// by Horner's rule and returns z. Each step is a multiply and an add on an
// unreduced accumulator in s, one word by the accumulator for a pseudonym
// x = i+1, and the sum is reduced once at the end; z is written only then,
// so it may alias x or a coefficient.
func (f *Field) HornerInto(z, x *big.Int, coeffs []*big.Int, s *Scratch) *big.Int {
	acc := s.acc.SetUint64(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Add(s.t.Mul(acc, x), coeffs[i])
	}
	// The quotient overwrites acc. The remainder is staged in s.t: the
	// division works in the remainder's words, and z, often a slab
	// element, has no room for them. QuoRem truncates toward zero, so a
	// negative sum leaves a remainder in (-q, 0].
	acc.QuoRem(acc, f.q, &s.t)
	if s.t.Sign() < 0 {
		s.t.Add(&s.t, f.q)
	}
	return z.Set(&s.t)
}

// Reduce returns x mod q as a fresh value in [0, q).
func (f *Field) Reduce(x *big.Int) *big.Int {
	var s Scratch
	return f.ReduceInto(new(big.Int), x, &s)
}

// FromInt64 embeds a machine integer into the field.
func (f *Field) FromInt64(x int64) *big.Int {
	return f.Reduce(big.NewInt(x))
}

// Add returns a+b mod q.
func (f *Field) Add(a, b *big.Int) *big.Int {
	var s Scratch
	return f.AddInto(new(big.Int), a, b, &s)
}

// Sub returns a-b mod q.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	var s Scratch
	return f.SubInto(new(big.Int), a, b, &s)
}

// Neg returns -a mod q.
func (f *Field) Neg(a *big.Int) *big.Int {
	var s Scratch
	z := new(big.Int)
	return f.ReduceInto(z, z.Neg(a), &s)
}

// Mul returns a*b mod q.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	var s Scratch
	return f.MulInto(new(big.Int), a, b, &s)
}

// Inv returns the multiplicative inverse of a mod q.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	r := f.Reduce(a)
	if r.Sign() == 0 {
		return nil, ErrNoInverse
	}
	return r.ModInverse(r, f.q), nil
}

// InvBatch replaces every element of xs with its inverse mod q using
// Montgomery's trick: one modular inversion and 3(len(xs)-1)
// multiplications instead of len(xs) inversions. The elements are reduced
// in place first. If any element is zero mod q the call fails with
// ErrNoInverse and xs holds unspecified (reduced or partially multiplied)
// values. Elements must be distinct big.Ints.
func (f *Field) InvBatch(xs []*big.Int, s *Scratch) error {
	if len(xs) == 0 {
		return nil
	}
	// prefix[i] = xs[0] * ... * xs[i].
	prefix := f.Slab(len(xs))
	f.ReduceInto(&prefix[0], f.ReduceInto(xs[0], xs[0], s), s)
	for i := 1; i < len(xs); i++ {
		f.MulInto(&prefix[i], &prefix[i-1], f.ReduceInto(xs[i], xs[i], s), s)
	}
	if prefix[len(xs)-1].Sign() == 0 {
		return ErrNoInverse
	}
	var inv big.Int
	inv.ModInverse(&prefix[len(xs)-1], f.q)
	// Walking down, inv is the inverse of prefix[i]: times prefix[i-1] it
	// isolates 1/xs[i] (staged in prefix[i], which is dead by then), times
	// xs[i] it steps to the inverse of prefix[i-1].
	for i := len(xs) - 1; i > 0; i-- {
		f.MulInto(&prefix[i], &inv, &prefix[i-1], s)
		f.MulInto(&inv, &inv, xs[i], s)
		xs[i].Set(&prefix[i])
	}
	xs[0].Set(&inv)
	return nil
}

// Div returns a/b mod q.
func (f *Field) Div(a, b *big.Int) (*big.Int, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return nil, err
	}
	return f.Mul(a, bi), nil
}

// Equal reports whether a == b in the field.
func (f *Field) Equal(a, b *big.Int) bool {
	return f.Reduce(a).Cmp(f.Reduce(b)) == 0
}

// IsZero reports whether a reduces to zero.
func (f *Field) IsZero(a *big.Int) bool {
	return f.Reduce(a).Sign() == 0
}

// Rand returns a uniformly random field element in [0, q) drawn from src.
// If src is nil, crypto/rand is used.
func (f *Field) Rand(src io.Reader) (*big.Int, error) {
	var s Scratch
	return f.RandInto(new(big.Int), src, &s)
}

// RandNonZero returns a uniformly random unit in [1, q).
func (f *Field) RandNonZero(src io.Reader) (*big.Int, error) {
	var s Scratch
	return f.RandNonZeroInto(new(big.Int), src, &s)
}

// RandInto sets z to a uniformly random element of [0, q) drawn from src
// (crypto/rand when nil) and returns z. It is crypto/rand.Int(src, q)
// done in place: the same bytes per try, the same top-byte mask, the same
// rejection, so it consumes the same bytes of src and yields the same
// value, but into z's own words, staging the bytes in s.
func (f *Field) RandInto(z *big.Int, src io.Reader, s *Scratch) (*big.Int, error) {
	return f.draw(z, src, f.q, f.randBits, s)
}

// RandNonZeroInto sets z to a uniformly random unit in [1, q) and returns
// z: crypto/rand.Int(src, q-1) + 1, drawn as RandInto draws.
func (f *Field) RandNonZeroInto(z *big.Int, src io.Reader, s *Scratch) (*big.Int, error) {
	if _, err := f.draw(z, src, f.qm1, f.unitBits, s); err != nil {
		return nil, fmt.Errorf("field: drawing random unit: %w", err)
	}
	// z+1 < q fits in z's words; big.Int.Add would want a spare one.
	zw := z.Bits()
	for i := range zw {
		if zw[i]++; zw[i] != 0 {
			return z, nil
		}
	}
	return z.SetBits(append(zw, 1)), nil
}

// draw is crypto/rand.Int(src, max) for bitLen = bitlen(max-1) >= 1 (q is
// at least 3), into z.
func (f *Field) draw(z *big.Int, src io.Reader, max *big.Int, bitLen int, s *Scratch) (*big.Int, error) {
	if src == nil {
		src = rand.Reader
	}
	k := (bitLen + 7) / 8
	b := uint(bitLen % 8)
	if b == 0 {
		b = 8
	}
	if cap(s.rb) < k {
		s.rb = make([]byte, k)
	}
	buf := s.rb[:k]
	for {
		if _, err := io.ReadFull(src, buf); err != nil {
			return nil, err
		}
		buf[0] &= uint8(int(1<<b) - 1)
		if z.SetBytes(buf).Cmp(max) < 0 {
			return z, nil
		}
	}
}

// LagrangeAtZero computes the Lagrange basis coefficients for interpolation
// at x = 0 over the given nodes:
//
//	rho_k = prod_{i != k} alpha_i / (alpha_i - alpha_k)  (mod q)
//
// These are the coefficients rho_k of equation (12) in the paper: for any
// polynomial f of degree <= len(nodes)-1,
// f(0) = sum_k rho_k * f(alpha_k).
//
// Nodes must be distinct and nonzero mod q.
func (f *Field) LagrangeAtZero(nodes []*big.Int) ([]*big.Int, error) {
	n := len(nodes)
	if n == 0 {
		return nil, errors.New("field: no interpolation nodes")
	}
	red := make([]*big.Int, n)
	for i, a := range nodes {
		red[i] = a // only read below
		if !f.reduced(a) {
			red[i] = f.Reduce(a)
		}
		if red[i].Sign() == 0 {
			return nil, ErrZeroPoint
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if red[i].Cmp(red[j]) == 0 {
				return nil, ErrDuplicatePoint
			}
		}
	}
	// rho_k = phi0 / D_k with phi0 = prod_i alpha_i and
	// D_k = alpha_k * prod_{i != k} (alpha_i - alpha_k): one shared
	// numerator, and the n denominators inverted together. The
	// coefficients, phi0 and the difference share one slab.
	var s Scratch
	els := f.Slab(n + 2)
	phi0, diff := els[n].SetUint64(1), &els[n+1]
	coeffs := Pointers(els[:n])
	for k, den := range coeffs {
		f.MulInto(phi0, phi0, red[k], &s)
		den.Set(red[k])
		for i := 0; i < n; i++ {
			if i != k {
				f.MulInto(den, den, f.SubInto(diff, red[i], red[k], &s), &s)
			}
		}
	}
	if err := f.InvBatch(coeffs, &s); err != nil {
		return nil, fmt.Errorf("field: lagrange coefficients: %w", err)
	}
	for _, c := range coeffs {
		f.MulInto(c, c, phi0, &s)
	}
	return coeffs, nil
}

// InnerProduct returns sum_k a_k*b_k mod q. The slices must have equal
// length.
func (f *Field) InnerProduct(a, b []*big.Int) (*big.Int, error) {
	var s Scratch
	return f.InnerProductInto(new(big.Int), a, b, &s)
}

// InnerProductInto sets z = sum_k a_k*b_k mod q and returns z: the terms
// accumulate unreduced and are reduced once. z must not be an element of a
// or b.
func (f *Field) InnerProductInto(z *big.Int, a, b []*big.Int, s *Scratch) (*big.Int, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("field: inner product length mismatch %d != %d", len(a), len(b))
	}
	z.SetUint64(0)
	for i := range a {
		z.Add(z, s.t.Mul(a[i], b[i]))
	}
	return f.ReduceInto(z, z, s), nil
}
