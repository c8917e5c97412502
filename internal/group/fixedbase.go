package group

import (
	"math/big"
	"math/bits"

	"dmw/internal/mont"
)

// fixedBase precomputes windowed power tables for one base of order q,
// turning each exponentiation into ~ceil(qBits/window) modular
// multiplications with no squarings. The table entries live in the
// Montgomery domain (package mont), so each step is a division-free
// CIOS multiplication; only the final result is converted back. The
// protocol exponentiates z1 and z2 thousands of times per auction
// (commitments, verification equations, Lambda/Psi), so the fixed bases
// dominate Theorem 12's cost in practice; BenchmarkFixedBaseSpeedup
// quantifies the gain.
type fixedBase struct {
	m      *mont.Ctx
	window uint
	// table[i][d] = base^(d << (window*i)), Montgomery form.
	table [][][]uint64
}

// fixedBaseWindow is the table window width in bits. 4 gives 16-entry
// rows: a good size/speed balance for 48- to 480-bit exponents. It must
// divide the machine word size so window digits never straddle a word
// boundary (see digit).
const fixedBaseWindow = 4

// newFixedBase builds the table for a base of order q mod p.
func newFixedBase(m *mont.Ctx, base, q *big.Int) *fixedBase {
	numWindows := (q.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	fb := &fixedBase{
		m:      m,
		window: fixedBaseWindow,
		table:  make([][][]uint64, numWindows),
	}
	t := m.Temp()
	cur := m.ToMont(base, t) // base^(2^(window*i)) as i advances
	for i := 0; i < numWindows; i++ {
		row := make([][]uint64, 1<<fixedBaseWindow)
		row[0] = m.Set(m.One())
		for d := 1; d < len(row); d++ {
			row[d] = m.NewElem()
			m.Mul(row[d], row[d-1], cur, t)
		}
		fb.table[i] = row
		// Advance cur to base^(2^(window*(i+1))).
		next := m.NewElem()
		m.Mul(next, row[len(row)-1], cur, t)
		cur = next
	}
	return fb
}

// exp computes base^e mod p for a reduced exponent e in [0, q).
func (fb *fixedBase) exp(e *big.Int) *big.Int {
	m := fb.m
	ws := m.Acquire()
	acc := ws.Acc
	copy(acc, m.One())
	words := e.Bits()
	numWindows := (e.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	for i := 0; i < numWindows; i++ {
		d := digit(words, uint(i)*fixedBaseWindow)
		if d == 0 {
			continue
		}
		if i >= len(fb.table) {
			break // cannot happen for e < q
		}
		m.Mul(acc, acc, fb.table[i][d], ws.T)
	}
	out := m.FromMontInto(new(big.Int), acc, ws.T)
	m.Release(ws)
	return out
}

// digit extracts fixedBaseWindow bits starting at bit offset, reading
// whole words of the exponent's internal representation. Because
// fixedBaseWindow divides the word size, a digit never straddles a word
// boundary: one index, one shift, one mask. The previous implementation
// called e.Bit() once per bit (each call re-deriving the word index and
// shift); BenchmarkDigitExtraction measures the delta.
func digit(words []big.Word, offset uint) uint {
	const ws = uint(bits.UintSize)
	wi := offset / ws
	if wi >= uint(len(words)) {
		return 0
	}
	return uint(words[wi]>>(offset%ws)) & (1<<fixedBaseWindow - 1)
}

// digitViaBit is the pre-optimization digit extraction (one e.Bit() call
// per bit). It is kept only as the baseline for BenchmarkDigitExtraction
// and the equivalence test.
func digitViaBit(e *big.Int, offset uint, mask uint) uint {
	var d uint
	for b := uint(0); mask>>b != 0; b++ {
		if e.Bit(int(offset+b)) == 1 {
			d |= 1 << b
		}
	}
	return d
}

// jointBase is the Shamir-trick joint fixed-base table for the generator
// pair (z1, z2): table[i][d1|d2<<window] = z1^(d1<<(window*i)) *
// z2^(d2<<(window*i)) mod p. A Pedersen commitment z1^x * z2^r then
// costs ONE interleaved table pass (~ceil(qBits/window) multiplications)
// instead of two independent fixed-base passes plus a final Mul —
// halving the cost of Commit, the single most frequent composite
// operation of the Bidding phase. BenchmarkCommitJointBase quantifies
// the gain.
type jointBase struct {
	m      *mont.Ctx
	window uint
	table  [][][]uint64
}

// newJointBase combines two fixed-base tables (same modulus, q, window)
// into the joint pair table. Construction costs one multiplication per
// entry and is amortized over the lifetime of the Group (presets share
// groups via SharedFor). Entries stay in the Montgomery domain.
func newJointBase(fb1, fb2 *fixedBase) *jointBase {
	n := len(fb1.table)
	if len(fb2.table) < n {
		n = len(fb2.table)
	}
	m := fb1.m
	jb := &jointBase{m: m, window: fixedBaseWindow, table: make([][][]uint64, n)}
	size := 1 << fixedBaseWindow
	t := m.Temp()
	for i := 0; i < n; i++ {
		row := make([][]uint64, size*size)
		r1, r2 := fb1.table[i], fb2.table[i]
		for d2 := 0; d2 < size; d2++ {
			base2 := r2[d2]
			for d1 := 0; d1 < size; d1++ {
				switch {
				case d1 == 0:
					row[d2<<fixedBaseWindow] = base2
				case d2 == 0:
					row[d1] = r1[d1]
				default:
					v := m.NewElem()
					m.Mul(v, r1[d1], base2, t)
					row[d1|d2<<fixedBaseWindow] = v
				}
			}
		}
		jb.table[i] = row
	}
	return jb
}

// commit sets z = z1^x * z2^r mod p in one interleaved pass over the
// joint table and returns z; x and r must be reduced exponents in [0, q).
func (jb *jointBase) commit(z, x, r *big.Int) *big.Int {
	m := jb.m
	ws := m.Acquire()
	acc := ws.Acc
	copy(acc, m.One())
	wx, wr := x.Bits(), r.Bits()
	maxBits := x.BitLen()
	if l := r.BitLen(); l > maxBits {
		maxBits = l
	}
	numWindows := (maxBits + fixedBaseWindow - 1) / fixedBaseWindow
	for i := 0; i < numWindows; i++ {
		off := uint(i) * fixedBaseWindow
		d := digit(wx, off) | digit(wr, off)<<fixedBaseWindow
		if d == 0 {
			continue
		}
		if i >= len(jb.table) {
			break // cannot happen for reduced exponents
		}
		m.Mul(acc, acc, jb.table[i][d], ws.T)
	}
	out := m.FromMontInto(z, acc, ws.T)
	m.Release(ws)
	return out
}
