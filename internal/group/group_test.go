package group

import (
	"io"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testGroup(t *testing.T) *Group {
	t.Helper()
	return MustNew(MustPreset(PresetTest64))
}

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			pr, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.Validate(); err != nil {
				t.Fatal(err)
			}
			if _, err := New(pr); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTablesBuildTimeReported: a fresh build reports a nonzero build
// time, which the dmwd_table_build_seconds gauge surfaces.
func TestTablesBuildTimeReported(t *testing.T) {
	g := MustNew(MustPreset(PresetTest64))
	if g.TableBuildTime() <= 0 {
		t.Error("fresh group reports no table build time")
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Error("Preset(nope) succeeded")
	}
}

func TestValidateRejectsCorruptParams(t *testing.T) {
	base := MustPreset(PresetTest64)
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"nil p", func(p *Params) { p.P = nil }},
		{"composite p", func(p *Params) { p.P = big.NewInt(100) }},
		{"composite q", func(p *Params) { p.Q = big.NewInt(100) }},
		{"q not dividing p-1", func(p *Params) { p.Q = big.NewInt(1009) }},
		{"z1 identity", func(p *Params) { p.Z1 = big.NewInt(1) }},
		{"z1 wrong order", func(p *Params) { p.Z1 = big.NewInt(2) }},
		{"z1 == z2", func(p *Params) { p.Z2 = new(big.Int).Set(p.Z1) }},
		{"z out of range", func(p *Params) { p.Z2 = new(big.Int).Add(p.P, big.NewInt(1)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cp := &Params{
				P:  new(big.Int).Set(base.P),
				Q:  new(big.Int).Set(base.Q),
				Z1: new(big.Int).Set(base.Z1),
				Z2: new(big.Int).Set(base.Z2),
			}
			tt.mutate(cp)
			if err := cp.Validate(); err == nil {
				t.Error("Validate accepted corrupt parameters")
			}
		})
	}
}

func TestValidateNil(t *testing.T) {
	var pr *Params
	if err := pr.Validate(); err == nil {
		t.Error("Validate(nil) succeeded")
	}
}

func TestGenerateSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pr, err := Generate(32, 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pr.P.BitLen() != 32 {
		t.Errorf("p has %d bits, want 32", pr.P.BitLen())
	}
	if pr.Q.BitLen() != 24 {
		t.Errorf("q has %d bits, want 24", pr.Q.BitLen())
	}
	if err := pr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGenerateDefaultsQBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pr, err := Generate(32, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Q.BitLen() != 24 {
		t.Errorf("default q bits = %d, want 24", pr.Q.BitLen())
	}
}

func TestGenerateRejectsBadSizes(t *testing.T) {
	tests := []struct{ p, q int }{
		{8, 4},   // too small
		{32, 32}, // q >= p
		{32, 40},
	}
	for _, tt := range tests {
		if _, err := Generate(tt.p, tt.q, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("Generate(%d,%d) succeeded", tt.p, tt.q)
		}
	}
}

func TestExpReducesExponentModQ(t *testing.T) {
	g := testGroup(t)
	q := g.Params().Q
	e := big.NewInt(12345)
	eShift := new(big.Int).Add(e, q)
	if !g.Equal(g.Pow1(e), g.Pow1(eShift)) {
		t.Error("z1^e != z1^(e+q); exponent reduction broken")
	}
}

func TestCommitHomomorphism(t *testing.T) {
	g := testGroup(t)
	x1, r1 := big.NewInt(11), big.NewInt(22)
	x2, r2 := big.NewInt(33), big.NewInt(44)
	lhs := g.Mul(g.Commit(x1, r1), g.Commit(x2, r2))
	rhs := g.Commit(new(big.Int).Add(x1, x2), new(big.Int).Add(r1, r2))
	if !g.Equal(lhs, rhs) {
		t.Error("Pedersen commitments are not additively homomorphic")
	}
}

func TestInvAndDiv(t *testing.T) {
	g := testGroup(t)
	a := g.Pow1(big.NewInt(99))
	inv, err := g.Inv(a)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsOne(g.Mul(a, inv)) {
		t.Error("a * Inv(a) != 1")
	}
	d, err := g.Div(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsOne(d) {
		t.Error("a / a != 1")
	}
	if _, err := g.Inv(big.NewInt(0)); err == nil {
		t.Error("Inv(0) succeeded")
	}
}

func TestCounterRecordsOps(t *testing.T) {
	g := testGroup(t)
	var c Counter
	gc := g.WithCounter(&c)
	gc.Commit(big.NewInt(1), big.NewInt(2)) // one 2-term multi-exp (joint table)
	gc.Mul(big.NewInt(3), big.NewInt(4))
	if got := c.Exp(); got != 2 {
		t.Errorf("Exp count = %d, want 2", got)
	}
	if got := c.Mul(); got != 1 {
		t.Errorf("Mul count = %d, want 1", got)
	}
	if c.MultiExps() != 1 || c.MultiExpTerms() != 2 {
		t.Errorf("multi-exp counters = (%d, %d), want (1, 2)", c.MultiExps(), c.MultiExpTerms())
	}
	c.Reset()
	if c.Exp() != 0 || c.Mul() != 0 || c.MultiExps() != 0 || c.MultiExpTerms() != 0 {
		t.Error("Reset did not zero counters")
	}
	// The uncounted view must not record.
	g.Commit(big.NewInt(1), big.NewInt(2))
	if c.Exp() != 0 {
		t.Error("uncounted group recorded operations")
	}
}

func TestCounterAdd(t *testing.T) {
	var a, b Counter
	g := testGroup(t)
	g.WithCounter(&a).Pow1(big.NewInt(3))
	g.WithCounter(&b).Pow1(big.NewInt(4))
	a.Add(&b)
	if a.Exp() != 2 {
		t.Errorf("after Add, Exp = %d, want 2", a.Exp())
	}
}

// Property: exponent laws hold: z^(a+b) = z^a * z^b and (z^a)^b = z^(ab).
func TestExponentLawsProperty(t *testing.T) {
	g := testGroup(t)
	check := func(ai, bi int64) bool {
		a := g.Scalars().FromInt64(ai)
		b := g.Scalars().FromInt64(bi)
		sum := g.Pow1(g.Scalars().Add(a, b))
		prod := g.Mul(g.Pow1(a), g.Pow1(b))
		if !g.Equal(sum, prod) {
			return false
		}
		lhs := g.Exp(g.Pow1(a), b)
		rhs := g.Pow1(g.Scalars().Mul(a, b))
		return g.Equal(lhs, rhs)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkExp(b *testing.B) {
	for _, name := range []string{PresetTest64, PresetDemo128, PresetSim256, PresetSecure512} {
		b.Run(name, func(b *testing.B) {
			g := MustNew(MustPreset(name))
			e := new(big.Int).Sub(g.Params().Q, big.NewInt(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Pow1(e)
			}
		})
	}
}

func TestParamsJSONRoundTrip(t *testing.T) {
	pr := MustPreset(PresetTest64)
	var buf strings.Builder
	if err := SaveParams(&buf, pr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.P.Cmp(pr.P) != 0 || got.Q.Cmp(pr.Q) != 0 || got.Z1.Cmp(pr.Z1) != 0 || got.Z2.Cmp(pr.Z2) != 0 {
		t.Error("round trip changed parameters")
	}
}

func TestLoadParamsRejectsGarbage(t *testing.T) {
	if _, err := LoadParams(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadParams(strings.NewReader(`{"P":100,"Q":7,"Z1":2,"Z2":3}`)); err == nil {
		t.Error("invalid parameters accepted")
	}
}

func TestSaveParamsValidates(t *testing.T) {
	var buf strings.Builder
	if err := SaveParams(&buf, &Params{}); err == nil {
		t.Error("invalid params saved")
	}
}

func TestResolveParams(t *testing.T) {
	// Preset path.
	pr, err := ResolveParams("", PresetTest64, nil)
	if err != nil || pr == nil {
		t.Fatalf("preset resolve: %v", err)
	}
	// Neither source.
	if _, err := ResolveParams("", "", nil); err != ErrNoParams {
		t.Errorf("error = %v, want ErrNoParams", err)
	}
	// File path via an in-memory opener.
	var buf strings.Builder
	if err := SaveParams(&buf, MustPreset(PresetTest64)); err != nil {
		t.Fatal(err)
	}
	open := func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(buf.String())), nil
	}
	pr, err = ResolveParams("x.json", "ignored", open)
	if err != nil {
		t.Fatal(err)
	}
	if pr.P.Cmp(MustPreset(PresetTest64).P) != 0 {
		t.Error("file resolve returned wrong parameters")
	}
}
