package group

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/mont"
)

// The group's side of the Montgomery context (package mont): the domain
// arithmetic the fixed-base tables and the multi-exp engine run on, at
// every preset's p. Kernel-against-oracle tests live in package mont.

// montModuli covers 1 through 8 words, including presets and moduli with
// high words near 2^64 (carry stress).
func montModuli(t *testing.T) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	mods := []*big.Int{
		big.NewInt(3),
		big.NewInt(65537),
		MustPreset(PresetTiny16).P,
		MustPreset(PresetTest64).P,
		MustPreset(PresetDemo128).P,
		MustPreset(PresetSim256).P,
		MustPreset(PresetSecure512).P,
	}
	for _, bits := range []int{63, 65, 127, 192, 256, 320, 511} {
		for {
			p := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			p.SetBit(p, bits-1, 1) // full bit length
			p.SetBit(p, 0, 1)      // odd
			if p.Cmp(big.NewInt(2)) > 0 {
				mods = append(mods, p)
				break
			}
		}
	}
	return mods
}

// fromMont converts a domain element back without overwriting it.
func fromMont(m *mont.Ctx, a, t []uint64) *big.Int {
	return m.FromMontInto(new(big.Int), m.Set(a), t)
}

// TestMontMulMatchesBigInt is the core differential test: for random
// a, b < p, fromMont(Mul(ToMont(a), ToMont(b))) must equal a*b mod p.
func TestMontMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range montModuli(t) {
		m := mont.New(p)
		tmp := m.Temp()
		for trial := 0; trial < 50; trial++ {
			a := new(big.Int).Rand(rng, p)
			b := new(big.Int).Rand(rng, p)
			ma, mb := m.ToMont(a, tmp), m.ToMont(b, tmp)
			out := m.NewElem()
			m.Mul(out, ma, mb, tmp)
			got := fromMont(m, out, tmp)
			want := new(big.Int).Mul(a, b)
			want.Mod(want, p)
			if got.Cmp(want) != 0 {
				t.Fatalf("p=%v (%d words): mont mul(%v, %v) = %v, want %v", p, m.Words(), a, b, got, want)
			}
		}
	}
}

// TestMontEdgeValues hits the boundary operands: 0, 1, p-1, and squaring
// (dst aliasing both inputs).
func TestMontEdgeValues(t *testing.T) {
	for _, p := range montModuli(t) {
		m := mont.New(p)
		tmp := m.Temp()
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		vals := []*big.Int{big.NewInt(0), big.NewInt(1), pm1}
		for _, a := range vals {
			for _, b := range vals {
				ma, mb := m.ToMont(a, tmp), m.ToMont(b, tmp)
				out := m.NewElem()
				m.Mul(out, ma, mb, tmp)
				got := fromMont(m, out, tmp)
				want := new(big.Int).Mul(a, b)
				want.Mod(want, p)
				if got.Cmp(want) != 0 {
					t.Fatalf("p=%v: mul(%v, %v) = %v, want %v", p, a, b, got, want)
				}
			}
		}
		// Aliased squaring: Mul(x, x, x).
		x := m.ToMont(pm1, tmp)
		m.Mul(x, x, x, tmp)
		got := fromMont(m, x, tmp)
		want := new(big.Int).Mul(pm1, pm1)
		want.Mod(want, p)
		if got.Cmp(want) != 0 {
			t.Fatalf("p=%v: aliased square = %v, want %v", p, got, want)
		}
	}
}

// TestMontRoundTrip pins the domain conversions: fromMont(ToMont(x)) = x
// and the domain's 1 converts to the integer 1.
func TestMontRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range montModuli(t) {
		m := mont.New(p)
		tmp := m.Temp()
		if got := fromMont(m, m.One(), tmp); got.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("p=%v: fromMont(One) = %v, want 1", p, got)
		}
		for trial := 0; trial < 20; trial++ {
			x := new(big.Int).Rand(rng, p)
			if got := fromMont(m, m.ToMont(x, tmp), tmp); got.Cmp(x) != 0 {
				t.Fatalf("p=%v: round trip of %v gave %v", p, x, got)
			}
		}
	}
}

func TestMontRejectsEvenModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mont.New accepted an even modulus")
		}
	}()
	mont.New(big.NewInt(100))
}

// TestWordConversions pins the big.Int <-> word staging the plain-domain
// products read and write through: x*1 mod p must come back as x for
// values of every width up to p's, written into a destination that
// starts out narrower, wider, or aliased to the operand.
func TestWordConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var s mont.Scratch
	for _, p := range montModuli(t) {
		m := mont.New(p)
		one := big.NewInt(1)
		for trial := 0; trial < 20; trial++ {
			x := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(1+rng.Intn(p.BitLen()))))
			x.Mod(x, p)
			for _, z := range []*big.Int{new(big.Int), new(big.Int).Lsh(one, 600), new(big.Int).Set(x)} {
				if got := m.MulInto(z, z.Set(x), one, &s); got.Cmp(x) != 0 {
					t.Fatalf("p=%v: %v * 1 gave %v", p, x, got)
				}
			}
		}
		if got := m.MulInto(big.NewInt(7), new(big.Int), one, &s); got.Sign() != 0 {
			t.Errorf("p=%v: 0 * 1 gave %v", p, got)
		}
	}
}

// TestMulIntoMatchesBigInt checks Group.MulInto against big.Int Mul+Mod
// at every preset, on operands in [0, p) (the Montgomery path) and
// outside it (negative, p or larger, p^2 or larger: the division path),
// into a fresh destination and into one aliasing each operand.
func TestMulIntoMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, name := range PresetNames() {
		g := MustNew(MustPreset(name))
		p := g.P()
		operand := func() *big.Int {
			x := new(big.Int).Rand(rng, p)
			switch rng.Intn(6) {
			case 0:
				return x.Neg(x)
			case 1:
				return x.Add(x, p)
			case 2:
				return x.Add(x, new(big.Int).Mul(p, p))
			case 3:
				return new(big.Int).Sub(p, big.NewInt(1))
			}
			return x
		}
		var s MulScratch
		for i := 0; i < 300; i++ {
			a, b := operand(), operand()
			want := new(big.Int).Mul(a, b)
			want.Mod(want, p)
			za, zb := new(big.Int).Set(a), new(big.Int).Set(b)
			for what, got := range map[string]*big.Int{
				"fresh": g.MulInto(new(big.Int), a, b, &s),
				"z=a":   g.MulInto(za, za, b, &s),
				"z=b":   g.MulInto(zb, a, zb, &s),
				"Mul":   g.Mul(a, b),
			} {
				if got.Cmp(want) != 0 {
					t.Fatalf("%s %s: MulInto(%v, %v) = %v, want %v", name, what, a, b, got, want)
				}
			}
		}
	}
}
