package poly

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/field"
)

// The references below are the allocating forms this package used before
// the in-place kernel, written against math/big alone.

// kernelFields are a one-word modulus and a several-word one.
func kernelFields() []*field.Field {
	return []*field.Field{field.MustNew(big.NewInt(1009)), allocField()}
}

// refEval is Horner's rule with a fresh value per step.
func refEval(q *big.Int, coeffs []*big.Int, x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = new(big.Int).Mod(new(big.Int).Add(new(big.Int).Mul(acc, x), coeffs[i]), q)
	}
	return acc
}

// refInterpolateThreeStep is Section 2.4's algorithm as the package
// implemented it: one division per psi_k and one more per psi_k/alpha_k.
func refInterpolateThreeStep(t *testing.T, f *field.Field, shares []Share) *big.Int {
	t.Helper()
	q := f.Q()
	div := func(a, b *big.Int) *big.Int {
		inv, err := f.Inv(b)
		if err != nil {
			t.Fatal(err)
		}
		return new(big.Int).Mod(new(big.Int).Mul(a, inv), q)
	}
	phi0, sum := big.NewInt(1), new(big.Int)
	for k, sh := range shares {
		den := big.NewInt(1)
		for i, o := range shares {
			if i != k {
				den.Mod(den.Mul(den, new(big.Int).Sub(sh.Node, o.Node)), q)
			}
		}
		sum.Add(sum, div(div(sh.Value, den), sh.Node))
		phi0.Mod(phi0.Mul(phi0, sh.Node), q)
	}
	return sum.Mod(sum.Mul(sum, phi0), q)
}

func TestEvalKernelMatchesReference(t *testing.T) {
	for _, f := range kernelFields() {
		q := f.Q()
		r := rand.New(rand.NewSource(int64(f.BitLen())))
		var s field.Scratch
		z := big.NewInt(777) // reused, dirty destination
		for trial := 0; trial < 300; trial++ {
			coeffs := make([]*big.Int, r.Intn(9)) // length 0 is the zero polynomial
			for i := range coeffs {
				coeffs[i], _ = f.Rand(r)
				if r.Intn(5) == 0 {
					coeffs[i].SetInt64(0)
				}
			}
			p := New(f, coeffs)
			x, _ := f.Rand(r)
			switch r.Intn(4) {
			case 0:
				x.SetInt64(0)
			case 1:
				x.Neg(x)
			case 2:
				x.Add(x, q).Mul(x, q) // unreduced
			}
			x0 := new(big.Int).Set(x)
			want := refEval(q, coeffs, x)
			if got := p.Eval(x); got.Cmp(want) != 0 {
				t.Fatalf("q=%v: Eval(%v) of %v = %v, want %v", q, x, coeffs, got, want)
			}
			if got := p.EvalInto(z, x, &s); got != z || z.Cmp(want) != 0 {
				t.Fatalf("q=%v: EvalInto(%v) of %v = %v, want %v", q, x, coeffs, z, want)
			}
			if x.Cmp(x0) != 0 {
				t.Fatal("EvalInto mutated its argument")
			}
			// Evaluating at one of the polynomial's own coefficients: the
			// argument aliases storage the loop reads.
			if len(coeffs) > 0 {
				c := p.CoeffView(r.Intn(len(coeffs)))
				if got, want := p.EvalInto(z, c, &s), refEval(q, coeffs, c); got.Cmp(want) != 0 {
					t.Fatalf("EvalInto at own coefficient = %v, want %v", got, want)
				}
			}
		}
	}
}

func TestMulKernelMatchesReference(t *testing.T) {
	for _, f := range kernelFields() {
		q := f.Q()
		r := rand.New(rand.NewSource(int64(f.BitLen()) + 1))
		for trial := 0; trial < 200; trial++ {
			draw := func() []*big.Int {
				cs := make([]*big.Int, 1+r.Intn(6))
				for i := range cs {
					cs[i], _ = f.Rand(r)
					if r.Intn(4) == 0 {
						cs[i].SetInt64(0)
					}
				}
				return cs
			}
			a, b := draw(), draw()
			pa := New(f, a)
			pb := pa // squaring: both operands are the same polynomial
			if r.Intn(3) > 0 {
				pb = New(f, b)
			} else {
				b = a
			}
			want := make([]*big.Int, len(a)+len(b)-1)
			for i := range want {
				want[i] = new(big.Int)
			}
			for i := range a {
				for j := range b {
					want[i+j].Mod(want[i+j].Add(want[i+j], new(big.Int).Mul(a[i], b[j])), q)
				}
			}
			got := pa.Mul(pb)
			if got.Len() != len(want) {
				t.Fatalf("product has %d coefficients, want %d", got.Len(), len(want))
			}
			for i := range want {
				if got.Coeff(i).Cmp(want[i]) != 0 {
					t.Fatalf("q=%v: (%v)*(%v) coefficient %d = %v, want %v", q, a, b, i, got.Coeff(i), want[i])
				}
			}
		}
	}
}

// TestInterpolateMatchesThreeStep: the rho-vector form returns the
// Lagrange value; the three-step formula carries the extra sign
// (-1)^(s-1) (see InterpolateAtZero). They must agree up to exactly that
// sign on arbitrary values, and so on every zero test.
func TestInterpolateMatchesThreeStep(t *testing.T) {
	for _, f := range kernelFields() {
		q := f.Q()
		r := rand.New(rand.NewSource(int64(f.BitLen()) + 2))
		for trial := 0; trial < 200; trial++ {
			s := 1 + r.Intn(8)
			shares := make([]Share, s)
			for i, p := range r.Perm(12)[:s] {
				v, _ := f.Rand(r)
				if r.Intn(5) == 0 {
					v.Add(v, q) // disclosed values arrive unreduced at worst
				}
				shares[i] = Share{Node: big.NewInt(int64(p + 1)), Value: v}
			}
			got, err := InterpolateAtZero(f, shares)
			if err != nil {
				t.Fatal(err)
			}
			want := refInterpolateThreeStep(t, f, shares)
			if s%2 == 0 {
				want.Mod(want.Neg(want), q)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%v s=%d: InterpolateAtZero = %v, three-step (sign-adjusted) = %v", q, s, got, want)
			}
		}
	}
}
