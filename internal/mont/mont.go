// Package mont implements Montgomery modular multiplication over a fixed
// odd modulus: the arithmetic under every modular product the protocol
// computes. Package group runs its multi-exponentiation engine and
// fixed-base tables over a context mod p; package field runs its scalar
// products over a context mod q.
//
// Why not big.Int.Mul followed by big.Int.Mod? Because the Mod is a full
// multi-word division, several times the cost of the multiplication
// itself, while big.Int.Exp internally uses Montgomery reduction (one
// extra multiplication-sized pass, no division). An interleaved
// multi-exponentiation that pays a division per step loses its
// asymptotic advantage to big.Int.Exp's better constant at exactly the
// term counts the protocol cares about. CIOS Montgomery multiplication
// (Koc, Acar, Kaliski: "Analyzing and comparing Montgomery multiplication
// algorithms") restores the constant: each step is k^2+k word
// multiplications with no division, the same primitive big.Int.Exp pays.
//
// Values in the Montgomery domain are little-endian []uint64 slices of
// fixed length k = ceil(bits(p)/64) holding x*R mod p for R = 2^(64k).
// The kernel is chosen once per context by k (kernel.go): straight-line
// code for k = 1 and k = 4, the widths of the Test64 and Sim256 presets
// for both p and q, and the generic CIOS loop for every other width.
//
// This implementation is NOT constant-time; the repository is a protocol
// simulation, and exponents here are either public pseudonym powers or
// simulation secrets (see SECURITY notes in the README).
package mont

import (
	"math/big"
	"math/bits"
	"sync"
)

// Ctx is the precomputed context for a fixed odd modulus. It is read-only
// after New and safe to share across goroutines.
type Ctx struct {
	p        *big.Int // the modulus (shared; never mutated)
	n        []uint64 // modulus words, little-endian
	k        int      // word count
	kern     kernel   // the multiplication kernel for k
	n0inv    uint64   // -p^{-1} mod 2^64
	r2       []uint64 // R^2 mod p (converts into the domain)
	one      []uint64 // R mod p (the domain's 1)
	plainOne []uint64 // the integer 1, NOT in the domain (REDC multiplier)
	ws       sync.Pool
}

// New builds the context. The modulus must be odd (all protocol moduli
// are prime > 2); New panics otherwise.
func New(p *big.Int) *Ctx { return newCtx(p, true) }

// newCtx builds the context, selecting a fixed-width kernel for k = 1 and
// k = 4 when fixed is set and the generic loop otherwise (the tests force
// the generic loop to use it as the oracle).
func newCtx(p *big.Int, fixed bool) *Ctx {
	n := bigToWords(p)
	if n[0]&1 == 0 {
		panic("mont: Montgomery context requires an odd modulus")
	}
	k := len(n)
	m := &Ctx{p: p, n: n, k: k, kern: kernGeneric}
	if fixed {
		switch k {
		case 1:
			m.kern = kern1
		case 4:
			m.kern = kern4
		}
	}
	// n0inv by Newton-Hensel lifting: each step doubles the number of
	// correct low bits, starting from the 3 bits every odd n inverts
	// itself to mod 8.
	inv := n[0]
	for i := 0; i < 6; i++ {
		inv *= 2 - n[0]*inv
	}
	m.n0inv = -inv
	r2 := new(big.Int).Lsh(big.NewInt(1), uint(128*k))
	r2.Mod(r2, p)
	m.r2 = padWords(bigToWords(r2), k)
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
	r.Mod(r, p)
	m.one = padWords(bigToWords(r), k)
	m.plainOne = make([]uint64, k)
	m.plainOne[0] = 1
	m.ws.New = func() any {
		return &Workspace{
			T:   make([]uint64, k+2),
			Acc: make([]uint64, k),
			kw:  make([]uint64, k),
		}
	}
	return m
}

// Modulus returns the modulus (shared; do not mutate).
func (m *Ctx) Modulus() *big.Int { return m.p }

// Words returns k, the word count of every domain element.
func (m *Ctx) Words() int { return m.k }

// One returns the domain's 1, R mod p (shared; do not mutate).
func (m *Ctx) One() []uint64 { return m.one }

// Workspace is reusable scratch for one sequential computation: the CIOS
// temporary T, an accumulator element Acc, a conversion staging buffer,
// and a growable word arena for table-based algorithms. Acquire one per
// computation, release it when done; never share across goroutines.
type Workspace struct {
	T    []uint64 // k+2 CIOS scratch
	Acc  []uint64 // k-word accumulator
	kw   []uint64 // k-word staging buffer for big.Int conversion
	slab []uint64 // arena backing store, grown on demand
	off  int      // arena watermark
}

// Acquire returns a pooled workspace with an empty arena.
func (m *Ctx) Acquire() *Workspace {
	ws := m.ws.Get().(*Workspace)
	ws.off = 0
	return ws
}

// Release returns ws to the pool; the caller must not touch it again.
func (m *Ctx) Release(ws *Workspace) { m.ws.Put(ws) }

// Take returns n words of arena-backed scratch. The words are NOT
// zeroed; callers must fully write each element before reading it.
// Grows the slab (invalidating nothing: previous takes from this
// acquire cycle are preserved by copying).
func (ws *Workspace) Take(n int) []uint64 {
	if ws.off+n > len(ws.slab) {
		grown := make([]uint64, (ws.off+n)*2)
		copy(grown, ws.slab[:ws.off])
		ws.slab = grown
	}
	out := ws.slab[ws.off : ws.off+n]
	ws.off += n
	return out
}

// Temp returns a fresh temporary for Mul; callers allocate one per
// sequential computation and reuse it across every Mul in that
// computation.
func (m *Ctx) Temp() []uint64 { return make([]uint64, m.k+2) }

// NewElem returns a fresh zero element of the right width.
func (m *Ctx) NewElem() []uint64 { return make([]uint64, m.k) }

// Set copies src into a fresh element.
func (m *Ctx) Set(src []uint64) []uint64 {
	dst := make([]uint64, m.k)
	copy(dst, src)
	return dst
}

// ToMont converts x in [0, p) into the Montgomery domain.
func (m *Ctx) ToMont(x *big.Int, t []uint64) []uint64 {
	out := m.NewElem()
	m.Mul(out, padWords(bigToWords(x), m.k), m.r2, t)
	return out
}

// ToMontInto converts x in [0, p) into the Montgomery domain, writing
// the result into dst using ws for staging — no allocation.
func (m *Ctx) ToMontInto(dst []uint64, x *big.Int, ws *Workspace) {
	wordsInto(ws.kw, x)
	m.Mul(dst, ws.kw, m.r2, ws.T)
}

// FromMontInto converts a Montgomery-domain element back into z, in
// [0, p), and returns z: multiplying by the plain 1 performs one REDC
// pass. a is overwritten with the plain-domain words, which are then
// written into z reusing z's own words.
func (m *Ctx) FromMontInto(z *big.Int, a, t []uint64) *big.Int {
	m.Mul(a, a, m.plainOne, t)
	return setWords(z, a)
}

// Scratch is the staging storage of the plain-domain operations below:
// the operands' words and the CIOS temporary. The zero value is ready to
// use; up to four-word moduli it needs no heap storage at all, wider
// ones grow it once. It must not be shared between goroutines.
type Scratch struct {
	buf [4*4 + 2]uint64
	w   []uint64
}

func (s *Scratch) words(n int) []uint64 {
	if n <= len(s.buf) {
		return s.buf[:n]
	}
	if len(s.w) < n {
		s.w = make([]uint64, n)
	}
	return s.w[:n]
}

// MaxPlainWords is the widest modulus, in words, at which MulInto and
// MulAddInto beat big.Int Mul+Mod, and so the widest at which package
// field and Group.MulInto use them: they pay two Go kernel calls where
// big.Int pays one assembly multiply and a division. BenchmarkMontMul
// has them 2-5x faster at one to four words (Test64, Demo128, Sim256)
// and 1.3x slower at eight (Secure512).
const MaxPlainWords = 4

// MulInto sets z = a*b mod p and returns z, for a and b in [0, p): two
// kernel calls, mul(mul(a, R^2), b) = a*b, no division. z may alias a or
// b; its words are reused.
func (m *Ctx) MulInto(z, a, b *big.Int, s *Scratch) *big.Int {
	if m.kern == kern1 {
		return z.SetUint64(m.mul1(m.mul1(a.Uint64(), m.r2[0]), b.Uint64()))
	}
	k := m.k
	w := s.words(3*k + 2)
	aw, bw, t := w[:k], w[k:2*k], w[2*k:]
	wordsInto(aw, a)
	wordsInto(bw, b)
	m.Mul(aw, aw, m.r2, t)
	m.Mul(aw, aw, bw, t)
	return setWords(z, aw)
}

// MulAddInto sets z = a*b + c mod p and returns z, for a, b and c in
// [0, p): the product of MulInto plus one conditional subtraction. z may
// alias any argument.
func (m *Ctx) MulAddInto(z, a, b, c *big.Int, s *Scratch) *big.Int {
	if m.kern == kern1 {
		r := m.mul1(m.mul1(a.Uint64(), m.r2[0]), b.Uint64())
		sum, carry := bits.Add64(r, c.Uint64(), 0)
		if d, borrow := bits.Sub64(sum, m.n[0], 0); carry != 0 || borrow == 0 {
			sum = d
		}
		return z.SetUint64(sum)
	}
	k := m.k
	w := s.words(4*k + 2)
	aw, bw, cw, t := w[:k], w[k:2*k], w[2*k:3*k], w[3*k:]
	wordsInto(aw, a)
	wordsInto(bw, b)
	wordsInto(cw, c)
	m.Mul(aw, aw, m.r2, t)
	m.Mul(aw, aw, bw, t)
	var carry uint64
	for j := range aw {
		aw[j], carry = bits.Add64(aw[j], cw[j], carry)
	}
	var borrow uint64
	for j := range cw {
		cw[j], borrow = bits.Sub64(aw[j], m.n[j], borrow)
	}
	if carry != 0 || borrow == 0 {
		aw = cw
	}
	return setWords(z, aw)
}

// bigToWords converts a non-negative big.Int to little-endian uint64
// words via its big-endian byte encoding (portable across big.Word
// sizes).
func bigToWords(x *big.Int) []uint64 {
	b := x.Bytes()
	if len(b) == 0 {
		return []uint64{0}
	}
	w := make([]uint64, (len(b)+7)/8)
	for i, by := range b {
		bit := uint(8 * (len(b) - 1 - i))
		w[bit/64] |= uint64(by) << (bit % 64)
	}
	return w
}

// padWords zero-extends w to length k.
func padWords(w []uint64, k int) []uint64 {
	if len(w) >= k {
		return w[:k]
	}
	out := make([]uint64, k)
	copy(out, w)
	return out
}

// wordsInto fills dst (fully, zero-extended) with the little-endian
// uint64 words of non-negative x, without allocating. x must fit in
// len(dst) words. Reads x.Bits() directly so it works for both 32- and
// 64-bit big.Word.
func wordsInto(dst []uint64, x *big.Int) {
	for i := range dst {
		dst[i] = 0
	}
	bw := x.Bits()
	if bits.UintSize == 64 {
		for i, w := range bw {
			dst[i] = uint64(w)
		}
		return
	}
	for i, w := range bw {
		dst[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// setWords sets z to the non-negative value of the little-endian words w
// and returns z, writing into z's own words when they have room (the
// inverse of wordsInto; the same two big.Word paths).
func setWords(z *big.Int, w []uint64) *big.Int {
	n := len(w)
	if bits.UintSize == 32 {
		n *= 2
	}
	zw := z.Bits()
	if cap(zw) < n {
		zw = make([]big.Word, n)
	}
	zw = zw[:n]
	if bits.UintSize == 64 {
		for i, x := range w {
			zw[i] = big.Word(x)
		}
	} else {
		for i, x := range w {
			zw[2*i] = big.Word(uint32(x))
			zw[2*i+1] = big.Word(x >> 32)
		}
	}
	return z.SetBits(zw)
}
