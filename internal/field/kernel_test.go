package field

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// The references below are the allocating definitions the package had
// before the in-place kernel: plain math/big expressions ending in the
// Euclidean Mod. The kernel must agree with them on every input a caller
// can hand it — reduced, zero, negative, far larger than q — and whatever
// the destination aliases.

func refMod(q, x *big.Int) *big.Int { return new(big.Int).Mod(x, q) }

// kernelFields are moduli of one word, one word with a large quotient
// range, several words (Sim256's q), and more words than the Montgomery
// kernel takes (Secure512's q), whose products reduce through big.Int.
func kernelFields(t *testing.T) []*Field {
	t.Helper()
	sim, _ := new(big.Int).SetString("e462d13d9ce3f7cd8ad0e30a01f0f21d6e2c9d5c4b047e391e5ab291", 16)
	t64, _ := new(big.Int).SetString("ca1ecdfc1bcf", 16)
	wide, _ := new(big.Int).SetString("e4f8ada3cf96024752b0c3f878dd4a1cb6fcb4a741e669252d748e36620c638b34d9a8b4de7d88dd5093dc4f3b9bd58af077c483a5a46d97e997d1a7", 16)
	return []*Field{MustNew(big.NewInt(1009)), MustNew(t64), MustNew(sim), MustNew(wide)}
}

// operand draws from the classes the property is quantified over.
func operand(f *Field, r *rand.Rand) *big.Int {
	x, _ := f.Rand(r)
	switch r.Intn(8) {
	case 0:
		return new(big.Int) // zero
	case 1:
		return x.Neg(x) // negative, |x| < q
	case 2:
		return x.Mul(x, f.q).Mul(x, f.q).Add(x, big.NewInt(int64(r.Intn(1000)))) // >> q^2
	case 3:
		return x.Neg(x.Mul(x, f.q)) // negative multiple-ish of q
	case 4:
		return new(big.Int).Sub(f.q, big.NewInt(1)) // q-1
	case 5:
		return x.Add(x, f.q) // in [q, 2q)
	case 6:
		return new(big.Int).Set(f.q) // q itself
	default:
		return x // reduced
	}
}

func TestKernelMatchesAllocatingDefinitions(t *testing.T) {
	for _, f := range kernelFields(t) {
		r := rand.New(rand.NewSource(int64(f.BitLen())))
		var s Scratch // one scratch for the whole run: reuse must not leak state
		for i := 0; i < 2000; i++ {
			a, b, c := operand(f, r), operand(f, r), operand(f, r)
			a0, b0, c0 := new(big.Int).Set(a), new(big.Int).Set(b), new(big.Int).Set(c)
			sum := refMod(f.q, new(big.Int).Add(a, b))
			diff := refMod(f.q, new(big.Int).Sub(a, b))
			prod := refMod(f.q, new(big.Int).Mul(a, b))
			fma := refMod(f.q, new(big.Int).Add(new(big.Int).Mul(a, b), c))

			check := func(op string, got, want *big.Int) {
				t.Helper()
				if got.Cmp(want) != 0 {
					t.Fatalf("q=%v %s(%v, %v, %v) = %v, want %v", f.q, op, a0, b0, c0, got, want)
				}
			}
			// Fresh destination, then the value-returning wrappers.
			check("ReduceInto", f.ReduceInto(new(big.Int), a, &s), refMod(f.q, a))
			check("AddInto", f.AddInto(new(big.Int), a, b, &s), sum)
			check("SubInto", f.SubInto(new(big.Int), a, b, &s), diff)
			check("MulInto", f.MulInto(new(big.Int), a, b, &s), prod)
			check("MulAddInto", f.MulAddInto(new(big.Int), a, b, c, &s), fma)
			check("Reduce", f.Reduce(a), refMod(f.q, a))
			check("Add", f.Add(a, b), sum)
			check("Sub", f.Sub(a, b), diff)
			check("Mul", f.Mul(a, b), prod)
			check("Neg", f.Neg(a), refMod(f.q, new(big.Int).Neg(a)))
			if a.Cmp(a0) != 0 || b.Cmp(b0) != 0 || c.Cmp(c0) != 0 {
				t.Fatalf("an argument that was not the destination was mutated")
			}

			// Destination aliasing each argument in turn.
			cp := func(x *big.Int) *big.Int { return new(big.Int).Set(x) }
			z := cp(a)
			check("ReduceInto z=x", f.ReduceInto(z, z, &s), refMod(f.q, a))
			z = cp(a)
			check("AddInto z=a", f.AddInto(z, z, b, &s), sum)
			z = cp(b)
			check("AddInto z=b", f.AddInto(z, a, z, &s), sum)
			z = cp(a)
			check("SubInto z=a", f.SubInto(z, z, b, &s), diff)
			z = cp(b)
			check("SubInto z=b", f.SubInto(z, a, z, &s), diff)
			z = cp(a)
			check("MulInto z=a", f.MulInto(z, z, b, &s), prod)
			z = cp(b)
			check("MulInto z=b", f.MulInto(z, a, z, &s), prod)
			z = cp(a)
			check("MulInto z=a=b", f.MulInto(z, z, z, &s), refMod(f.q, new(big.Int).Mul(a, a)))
			z = cp(a)
			check("MulAddInto z=a", f.MulAddInto(z, z, b, c, &s), fma)
			z = cp(c)
			check("MulAddInto z=c", f.MulAddInto(z, a, b, z, &s), fma)
		}
	}
}

func TestInvBatchMatchesInv(t *testing.T) {
	for _, f := range kernelFields(t) {
		r := rand.New(rand.NewSource(int64(f.BitLen()) + 1))
		var s Scratch
		for n := 0; n <= 9; n++ {
			xs := make([]*big.Int, n)
			want := make([]*big.Int, n)
			for i := range xs {
				for {
					xs[i] = operand(f, r) // unreduced and negative inputs included
					if !f.IsZero(xs[i]) {
						break
					}
				}
				inv, err := f.Inv(xs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = inv
			}
			if err := f.InvBatch(xs, &s); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range xs {
				if xs[i].Cmp(want[i]) != 0 {
					t.Fatalf("q=%v n=%d: InvBatch[%d] = %v, Inv = %v", f.q, n, i, xs[i], want[i])
				}
			}
		}
		// One zero anywhere poisons the shared product and must be reported.
		for pos := 0; pos < 3; pos++ {
			xs := []*big.Int{big.NewInt(5), big.NewInt(7), big.NewInt(11)}
			xs[pos] = new(big.Int).Set(f.q) // zero mod q, not literally zero
			if err := f.InvBatch(xs, &s); !errors.Is(err, ErrNoInverse) {
				t.Errorf("zero at %d: error = %v, want ErrNoInverse", pos, err)
			}
		}
	}
}

// refLagrangeAtZero is the textbook per-node form LagrangeAtZero had
// before its denominators were inverted together: one division per node.
func refLagrangeAtZero(t *testing.T, f *Field, nodes []*big.Int) []*big.Int {
	t.Helper()
	out := make([]*big.Int, len(nodes))
	for k := range nodes {
		num, den := big.NewInt(1), big.NewInt(1)
		for i := range nodes {
			if i == k {
				continue
			}
			num = refMod(f.q, num.Mul(num, nodes[i]))
			den = refMod(f.q, den.Mul(den, new(big.Int).Sub(nodes[i], nodes[k])))
		}
		inv, err := f.Inv(den)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = refMod(f.q, num.Mul(num, inv))
	}
	return out
}

func TestLagrangeAndInnerProductMatchReferences(t *testing.T) {
	for _, f := range kernelFields(t) {
		r := rand.New(rand.NewSource(int64(f.BitLen()) + 2))
		var s Scratch
		for trial := 0; trial < 60; trial++ {
			// Distinct nonzero nodes: small pseudonyms in a random order,
			// as replacement-discloser sets produce, some left unreduced.
			n := 1 + r.Intn(8)
			nodes := make([]*big.Int, n)
			for i, p := range r.Perm(12)[:n] {
				nodes[i] = big.NewInt(int64(p + 1))
				if r.Intn(4) == 0 {
					nodes[i].Add(nodes[i], f.q)
				}
			}
			rho, err := f.LagrangeAtZero(nodes)
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range refLagrangeAtZero(t, f, nodes) {
				if rho[k].Cmp(want) != 0 {
					t.Fatalf("q=%v nodes %v: rho[%d] = %v, want %v", f.q, nodes, k, rho[k], want)
				}
			}

			vals := make([]*big.Int, n)
			want := new(big.Int)
			for i := range vals {
				vals[i] = operand(f, r)
				want.Add(want, new(big.Int).Mul(rho[i], vals[i]))
			}
			want.Mod(want, f.q)
			got, err := f.InnerProduct(rho, vals)
			if err != nil || got.Cmp(want) != 0 {
				t.Fatalf("InnerProduct = %v, %v; want %v", got, err, want)
			}
			z := big.NewInt(12345) // a dirty destination
			if _, err := f.InnerProductInto(z, rho, vals, &s); err != nil || z.Cmp(want) != 0 {
				t.Fatalf("InnerProductInto = %v, %v; want %v", z, err, want)
			}
		}
	}
}
