package field

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testQ is a small prime used across the unit tests. 1009 is prime.
var testQ = big.NewInt(1009)

func testField(t *testing.T) *Field {
	t.Helper()
	f, err := New(testQ)
	if err != nil {
		t.Fatalf("New(%v): %v", testQ, err)
	}
	return f
}

func TestNewRejectsBadModuli(t *testing.T) {
	tests := []struct {
		name string
		q    *big.Int
	}{
		{"nil", nil},
		{"zero", big.NewInt(0)},
		{"one", big.NewInt(1)},
		{"composite", big.NewInt(1000)},
		{"negative", big.NewInt(-7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.q); err == nil {
				t.Errorf("New(%v) accepted invalid modulus", tt.q)
			}
		})
	}
}

func TestNewCopiesModulus(t *testing.T) {
	q := big.NewInt(1009)
	f, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	q.SetInt64(4) // mutate caller's copy
	if got := f.Q(); got.Cmp(testQ) != 0 {
		t.Errorf("field modulus mutated through caller alias: %v", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(composite) did not panic")
		}
	}()
	MustNew(big.NewInt(10))
}

func TestBasicArithmetic(t *testing.T) {
	f := testField(t)
	tests := []struct {
		name string
		got  *big.Int
		want int64
	}{
		{"add", f.Add(big.NewInt(1000), big.NewInt(20)), 11},
		{"sub wraps", f.Sub(big.NewInt(3), big.NewInt(10)), 1002},
		{"neg", f.Neg(big.NewInt(1)), 1008},
		{"mul", f.Mul(big.NewInt(100), big.NewInt(100)), 10000 % 1009},
		{"reduce negative", f.Reduce(big.NewInt(-1)), 1008},
		{"from int64", f.FromInt64(-2), 1007},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got.Cmp(big.NewInt(tt.want)) != 0 {
				t.Errorf("got %v, want %d", tt.got, tt.want)
			}
		})
	}
}

func TestInv(t *testing.T) {
	f := testField(t)
	for _, x := range []int64{1, 2, 17, 1008} {
		inv, err := f.Inv(big.NewInt(x))
		if err != nil {
			t.Fatalf("Inv(%d): %v", x, err)
		}
		if got := f.Mul(big.NewInt(x), inv); got.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("x*Inv(x) = %v for x=%d, want 1", got, x)
		}
	}
	if _, err := f.Inv(big.NewInt(0)); err != ErrNoInverse {
		t.Errorf("Inv(0) error = %v, want ErrNoInverse", err)
	}
	if _, err := f.Inv(testQ); err != ErrNoInverse {
		t.Errorf("Inv(q) error = %v, want ErrNoInverse", err)
	}
}

func TestDivRoundTrips(t *testing.T) {
	f := testField(t)
	a, b := big.NewInt(123), big.NewInt(456)
	qt, err := f.Div(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Mul(qt, b); !f.Equal(got, a) {
		t.Errorf("Div then Mul: got %v, want %v", got, a)
	}
	if _, err := f.Div(a, big.NewInt(0)); err == nil {
		t.Error("Div by zero succeeded")
	}
}

func TestArgumentsNotMutated(t *testing.T) {
	f := testField(t)
	a := big.NewInt(-5)
	b := big.NewInt(7)
	f.Add(a, b)
	f.Mul(a, b)
	f.Sub(a, b)
	f.Neg(a)
	f.Reduce(a)
	if a.Cmp(big.NewInt(-5)) != 0 || b.Cmp(big.NewInt(7)) != 0 {
		t.Errorf("arguments mutated: a=%v b=%v", a, b)
	}
}

func TestRandInRange(t *testing.T) {
	f := testField(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x, err := f.Rand(rng)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() < 0 || x.Cmp(testQ) >= 0 {
			t.Fatalf("Rand out of range: %v", x)
		}
	}
}

func TestRandNonZero(t *testing.T) {
	f := testField(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x, err := f.RandNonZero(rng)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() <= 0 || x.Cmp(testQ) >= 0 {
			t.Fatalf("RandNonZero out of range: %v", x)
		}
	}
}

func TestRandNilSourceUsesCryptoRand(t *testing.T) {
	f := testField(t)
	if _, err := f.Rand(nil); err != nil {
		t.Errorf("Rand(nil): %v", err)
	}
	if _, err := f.RandNonZero(nil); err != nil {
		t.Errorf("RandNonZero(nil): %v", err)
	}
}

func TestLagrangeAtZeroExactForLowDegree(t *testing.T) {
	f := testField(t)
	// f(x) = 5 + 3x + 7x^2 over nodes 1..3 must reconstruct f(0) = 5.
	poly := func(x int64) *big.Int {
		v := 5 + 3*x + 7*x*x
		return f.FromInt64(v)
	}
	nodes := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	rho, err := f.LagrangeAtZero(nodes)
	if err != nil {
		t.Fatal(err)
	}
	vals := []*big.Int{poly(1), poly(2), poly(3)}
	got, err := f.InnerProduct(rho, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(got, big.NewInt(5)) {
		t.Errorf("interpolated f(0) = %v, want 5", got)
	}
}

func TestLagrangeAtZeroRejectsBadNodes(t *testing.T) {
	f := testField(t)
	tests := []struct {
		name  string
		nodes []*big.Int
		want  error
	}{
		{"empty", nil, nil},
		{"zero node", []*big.Int{big.NewInt(0)}, ErrZeroPoint},
		{"zero mod q", []*big.Int{big.NewInt(1009)}, ErrZeroPoint},
		{"duplicate", []*big.Int{big.NewInt(2), big.NewInt(2)}, ErrDuplicatePoint},
		{"duplicate mod q", []*big.Int{big.NewInt(2), big.NewInt(1011)}, ErrDuplicatePoint},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := f.LagrangeAtZero(tt.nodes)
			if err == nil {
				t.Fatal("accepted invalid nodes")
			}
			if tt.want != nil && err != tt.want {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestInnerProductLengthMismatch(t *testing.T) {
	f := testField(t)
	_, err := f.InnerProduct([]*big.Int{big.NewInt(1)}, nil)
	if err == nil {
		t.Error("InnerProduct accepted mismatched lengths")
	}
}

// Property: for random polynomials of degree d and any s >= d+1 nodes,
// Lagrange interpolation at zero reconstructs the constant term exactly.
func TestLagrangeReconstructionProperty(t *testing.T) {
	f := testField(t)
	rng := rand.New(rand.NewSource(99))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(6) // degree 0..5
		coeffs := make([]*big.Int, d+1)
		for i := range coeffs {
			c, err := f.Rand(r)
			if err != nil {
				return false
			}
			coeffs[i] = c
		}
		eval := func(x *big.Int) *big.Int {
			acc := new(big.Int)
			for i := len(coeffs) - 1; i >= 0; i-- {
				acc = f.Add(f.Mul(acc, x), coeffs[i])
			}
			return acc
		}
		s := d + 1 + r.Intn(3)
		nodes := make([]*big.Int, s)
		for i := range nodes {
			nodes[i] = big.NewInt(int64(i + 1))
		}
		rho, err := f.LagrangeAtZero(nodes)
		if err != nil {
			return false
		}
		vals := make([]*big.Int, s)
		for i, nd := range nodes {
			vals[i] = eval(nd)
		}
		got, err := f.InnerProduct(rho, vals)
		if err != nil {
			return false
		}
		return f.Equal(got, coeffs[0])
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: field axioms hold for random elements (commutativity,
// associativity, distributivity, additive/multiplicative inverses).
func TestFieldAxiomsProperty(t *testing.T) {
	f := testField(t)
	rng := rand.New(rand.NewSource(7))
	check := func(ai, bi, ci int64) bool {
		a, b, c := f.FromInt64(ai), f.FromInt64(bi), f.FromInt64(ci)
		if !f.Equal(f.Add(a, b), f.Add(b, a)) {
			return false
		}
		if !f.Equal(f.Mul(a, b), f.Mul(b, a)) {
			return false
		}
		if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
			return false
		}
		if !f.IsZero(f.Add(a, f.Neg(a))) {
			return false
		}
		if !f.IsZero(a) {
			inv, err := f.Inv(a)
			if err != nil || !f.Equal(f.Mul(a, inv), big.NewInt(1)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestNodesGrowsAndViews: the table holds a rho vector only for degrees
// below both n and sigma, keeps every earlier request's values when it
// grows in either direction, and refuses more pseudonyms than Z_q holds.
func TestNodesGrowsAndViews(t *testing.T) {
	f := testField(t)
	for _, c := range []struct{ n, sigma int }{{8, 3}, {5, 6}, {8, 3}, {2, 9}} {
		nd, err := f.Nodes(c.n, c.sigma)
		if err != nil {
			t.Fatal(err)
		}
		if len(nd.Alphas) != c.n || len(nd.Powers) != c.n || len(nd.Rhos) != min(c.n, c.sigma) {
			t.Fatalf("Nodes(%d, %d): %d alphas, %d power rows, %d rho vectors", c.n, c.sigma, len(nd.Alphas), len(nd.Powers), len(nd.Rhos))
		}
		for k, a := range nd.Alphas {
			if a.Int64() != int64(k+1) || len(nd.Powers[k]) != c.sigma {
				t.Fatalf("Nodes(%d, %d): alpha_%d = %v with %d powers", c.n, c.sigma, k, a, len(nd.Powers[k]))
			}
			if got, want := nd.Powers[k][c.sigma-1], new(big.Int).Exp(a, big.NewInt(int64(c.sigma)), testQ); got.Cmp(want) != 0 {
				t.Fatalf("Nodes(%d, %d): alpha_%d^sigma = %v, want %v", c.n, c.sigma, k, got, want)
			}
		}
		for d, rho := range nd.Rhos {
			want, err := f.LagrangeAtZero(nd.Alphas[:d+1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if rho[i].Cmp(want[i]) != 0 {
					t.Fatalf("Nodes(%d, %d): rho_%d[%d] = %v, want %v", c.n, c.sigma, d, i, rho[i], want[i])
				}
			}
		}
	}
	if _, err := f.Nodes(1009, 1); err == nil {
		t.Error("Nodes accepted as many pseudonyms as q")
	}
}
