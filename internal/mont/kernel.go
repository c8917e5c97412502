package mont

import "math/bits"

// kernel names the Montgomery multiplication a context runs; New picks
// it once from the modulus width.
type kernel uint8

const (
	kernGeneric kernel = iota // CIOS loop over k words, any k
	kern1                     // one word: Test64's p and q
	kern4                     // four words: Sim256's p and q
)

// Mul sets dst = a*b*R^{-1} mod p. a and b must be < p; t is a k+2-word
// temporary from Temp (only the generic kernel uses it). dst may alias
// a and/or b.
func (m *Ctx) Mul(dst, a, b, t []uint64) {
	switch m.kern {
	case kern1:
		dst[0] = m.mul1(a[0], b[0])
	case kern4:
		m.mul4(dst, a, b)
	default:
		m.mulGeneric(dst, a, b, t)
	}
}

// mul1 is CIOS for one word: a*b + mw*n cancels the low word, and the
// high word is < 2n, so one conditional subtraction normalizes it (the
// carry out of the high word is the 65th bit of a value >= n).
func (m *Ctx) mul1(a, b uint64) uint64 {
	n := m.n[0]
	hi, lo := bits.Mul64(a, b)
	mh, ml := bits.Mul64(lo*m.n0inv, n)
	_, c := bits.Add64(lo, ml, 0)
	r, c := bits.Add64(hi, mh, c)
	if d, borrow := bits.Sub64(r, n, 0); c != 0 || borrow == 0 {
		return d
	}
	return r
}

// madd0 returns the high word of a*b + c.
func madd0(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, carry := bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi
}

// madd1 returns a*b + c as (hi, lo).
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// madd2 returns a*b + c + d as (hi, lo); the sum cannot exceed
// 2^128 - 1. The carries feed bits.Add64 carry-ins, which the compiler
// turns into add-with-carry instructions.
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// mul4 is mulGeneric for k = 4 written out as straight-line code: the
// four rows unrolled, the temporary held in locals t0..t4 (t5 holds the
// carry bit the generic loop keeps in t[k+1]). A loop over the rows, or
// a closure per row, makes the compiler spill the temporary to the stack
// and runs 1.3-1.6x slower. Every input word is read before dst is
// written, so dst may alias a and b.
func (m *Ctx) mul4(dst, a, b []uint64) {
	_, _, _, n := dst[3], a[3], b[3], m.n[:4]
	n0, n1, n2, n3 := n[0], n[1], n[2], n[3]
	inv := m.n0inv
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	var t0, t1, t2, t3, t4, t5, c, mw uint64

	// Row 0: t = a0*b (t starts at zero), then one REDC step: add mw*n
	// so the low word cancels, and shift down.
	c, t0 = bits.Mul64(a0, b0)
	c, t1 = madd1(a0, b1, c)
	c, t2 = madd1(a0, b2, c)
	c, t3 = madd1(a0, b3, c)
	t4, t5 = c, 0
	mw = t0 * inv
	c = madd0(mw, n0, t0)
	c, t0 = madd2(mw, n1, t1, c)
	c, t1 = madd2(mw, n2, t2, c)
	c, t2 = madd2(mw, n3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// Row 1: t += a1*b, REDC step.
	c, t0 = madd1(a1, b0, t0)
	c, t1 = madd2(a1, b1, t1, c)
	c, t2 = madd2(a1, b2, t2, c)
	c, t3 = madd2(a1, b3, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	mw = t0 * inv
	c = madd0(mw, n0, t0)
	c, t0 = madd2(mw, n1, t1, c)
	c, t1 = madd2(mw, n2, t2, c)
	c, t2 = madd2(mw, n3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// Row 2: t += a2*b, REDC step.
	c, t0 = madd1(a2, b0, t0)
	c, t1 = madd2(a2, b1, t1, c)
	c, t2 = madd2(a2, b2, t2, c)
	c, t3 = madd2(a2, b3, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	mw = t0 * inv
	c = madd0(mw, n0, t0)
	c, t0 = madd2(mw, n1, t1, c)
	c, t1 = madd2(mw, n2, t2, c)
	c, t2 = madd2(mw, n3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// Row 3: t += a3*b, REDC step.
	c, t0 = madd1(a3, b0, t0)
	c, t1 = madd2(a3, b1, t1, c)
	c, t2 = madd2(a3, b2, t2, c)
	c, t3 = madd2(a3, b3, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	mw = t0 * inv
	c = madd0(mw, n0, t0)
	c, t0 = madd2(mw, n1, t1, c)
	c, t1 = madd2(mw, n2, t2, c)
	c, t2 = madd2(mw, n3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// t < 2p: subtract p once unless that borrows out of t4.
	s0, br := bits.Sub64(t0, n0, 0)
	s1, br := bits.Sub64(t1, n1, br)
	s2, br := bits.Sub64(t2, n2, br)
	s3, br := bits.Sub64(t3, n3, br)
	if _, br = bits.Sub64(t4, 0, br); br == 0 {
		t0, t1, t2, t3 = s0, s1, s2, s3
	}
	dst[0], dst[1], dst[2], dst[3] = t0, t1, t2, t3
}

// mulGeneric is CIOS (coarsely integrated operand scanning) for any k:
// the oracle the fixed-width kernels are tested against, and the kernel
// for widths that have none. t is a k+2-word temporary; the result is
// staged in t and written to dst at the end, so dst may alias a and b.
func (m *Ctx) mulGeneric(dst, a, b, t []uint64) {
	k := m.k
	n := m.n
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		// t += a[i] * b.
		ai := a[i]
		var c uint64
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(ai, b[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j] = lo
			c = hi
		}
		var cc uint64
		t[k], cc = bits.Add64(t[k], c, 0)
		t[k+1] += cc

		// One REDC step: add mw*n so the low word cancels, shift down.
		mw := t[0] * m.n0inv
		hi, lo := bits.Mul64(mw, n[0])
		_, cc = bits.Add64(lo, t[0], 0) // low word becomes zero by choice of mw
		c = hi + cc
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(mw, n[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1] = lo
			c = hi
		}
		t[k-1], cc = bits.Add64(t[k], c, 0)
		t[k] = t[k+1] + cc
		t[k+1] = 0
	}
	// t < 2p after the loop: one conditional subtraction normalizes.
	if t[k] == 0 {
		ge := true
		for j := k - 1; j >= 0; j-- {
			if t[j] != n[j] {
				ge = t[j] > n[j]
				break
			}
		}
		if !ge {
			copy(dst, t[:k])
			return
		}
	}
	var borrow uint64
	for j := 0; j < k; j++ {
		dst[j], borrow = bits.Sub64(t[j], n[j], borrow)
	}
}
