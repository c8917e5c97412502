package mont_test

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/group"
	"dmw/internal/mont"
)

// The fixed-width kernels are checked against two oracles: the generic
// CIOS loop (mont.NewGeneric) and plain big.Int arithmetic. A Montgomery
// product of words a, b < p is a*b*R^{-1} mod p with R = 2^(64k).

// presetModuli returns p and q of every preset.
func presetModuli() []*big.Int {
	var mods []*big.Int
	for _, name := range group.PresetNames() {
		pr := group.MustPreset(name)
		mods = append(mods, pr.P, pr.Q)
	}
	return mods
}

// stressModulus returns a random odd k-word modulus whose top word lies
// within 2^16 of 2^64, where the kernels' carries out of the top word
// are most often taken.
func stressModulus(rng *rand.Rand, k int) *big.Int {
	p := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(64*(k-1))))
	top := new(big.Int).SetUint64(^uint64(0) - uint64(rng.Intn(1<<16)))
	p.Add(p, top.Lsh(top, uint(64*(k-1))))
	return p.SetBit(p, 0, 1)
}

// kernelModuli is every preset modulus plus stress moduli of 1-8 words.
func kernelModuli(rng *rand.Rand) []*big.Int {
	mods := presetModuli()
	for k := 1; k <= 8; k++ {
		for i := 0; i < 3; i++ {
			mods = append(mods, stressModulus(rng, k))
		}
	}
	// R minus a little: every word all ones or nearly, the only moduli at
	// which t + a_i*b carries out of the kernels' top temporary word.
	for k := 1; k <= 8; k++ {
		r := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
		for _, d := range []int64{1, 3, 1 + 2*int64(rng.Intn(1<<20))} {
			mods = append(mods, new(big.Int).Sub(r, big.NewInt(d)))
		}
	}
	return append(mods, big.NewInt(3))
}

// words returns the k little-endian words of x.
func words(x *big.Int, k int) []uint64 {
	w := make([]uint64, k)
	v := new(big.Int).Set(x)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := range w {
		w[i] = new(big.Int).And(v, mask).Uint64()
		v.Rsh(v, 64)
	}
	return w
}

// fromWords is the inverse of words.
func fromWords(w []uint64) *big.Int {
	x := new(big.Int)
	for i := len(w) - 1; i >= 0; i-- {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(w[i]))
	}
	return x
}

// redc is the big.Int definition of the Montgomery product.
func redc(p *big.Int, k int, a, b *big.Int) *big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
	rInv := r.ModInverse(r.Mod(r, p), p)
	out := new(big.Int).Mul(a, b)
	out.Mul(out, rInv)
	return out.Mod(out, p)
}

// operands returns 0, 1, p-1 and n random values below p.
func operands(rng *rand.Rand, p *big.Int, n int) []*big.Int {
	ops := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1))}
	for i := 0; i < n; i++ {
		ops = append(ops, new(big.Int).Rand(rng, p))
	}
	return ops
}

// checkMul compares the selected kernel, the generic loop and big.Int on
// one operand pair, plain and with dst aliasing both operands.
func checkMul(t *testing.T, p, a, b *big.Int) {
	t.Helper()
	fixed, generic := mont.New(p), mont.NewGeneric(p)
	k := fixed.Words()
	want := redc(p, k, a, b)
	got, oracle := fixed.NewElem(), generic.NewElem()
	fixed.Mul(got, words(a, k), words(b, k), fixed.Temp())
	generic.Mul(oracle, words(a, k), words(b, k), generic.Temp())
	if fromWords(got).Cmp(want) != 0 || fromWords(oracle).Cmp(want) != 0 {
		t.Fatalf("p=%x (%d words, fixed %v): mul(%x, %x) = %x, generic %x, want %x",
			p, k, fixed.Fixed(), a, b, fromWords(got), fromWords(oracle), want)
	}
	x := words(a, k)
	fixed.Mul(x, x, x, fixed.Temp())
	if sq := redc(p, k, a, a); fromWords(x).Cmp(sq) != 0 {
		t.Fatalf("p=%x: aliased square of %x = %x, want %x", p, a, fromWords(x), sq)
	}
}

// checkPlain compares the plain-domain products against big.Int Mul+Mod,
// into a fresh destination and into one aliasing every operand.
func checkPlain(t *testing.T, p, a, b, c *big.Int) {
	t.Helper()
	var s mont.Scratch
	prod := new(big.Int).Mul(a, b)
	fma := new(big.Int).Add(prod, c)
	prod.Mod(prod, p)
	fma.Mod(fma, p)
	for _, m := range []*mont.Ctx{mont.New(p), mont.NewGeneric(p)} {
		if got := m.MulInto(new(big.Int), a, b, &s); got.Cmp(prod) != 0 {
			t.Fatalf("p=%x fixed %v: MulInto(%x, %x) = %x, want %x", p, m.Fixed(), a, b, got, prod)
		}
		if got := m.MulAddInto(new(big.Int), a, b, c, &s); got.Cmp(fma) != 0 {
			t.Fatalf("p=%x fixed %v: MulAddInto(%x, %x, %x) = %x, want %x", p, m.Fixed(), a, b, c, got, fma)
		}
		z := new(big.Int).Set(a)
		sq := new(big.Int).Mul(a, a)
		if got := m.MulInto(z, z, z, &s); got.Cmp(sq.Mod(sq, p)) != 0 {
			t.Fatalf("p=%x: aliased MulInto(%x, %x) = %x, want %x", p, a, a, got, sq)
		}
		z.Set(a)
		sq.Mul(a, a).Add(sq, a)
		if got := m.MulAddInto(z, z, z, z, &s); got.Cmp(sq.Mod(sq, p)) != 0 {
			t.Fatalf("p=%x: aliased MulAddInto(%x, %x, %x) = %x, want %x", p, a, a, a, got, sq)
		}
	}
}

func TestFixedKernelSelection(t *testing.T) {
	for _, name := range group.PresetNames() {
		pr := group.MustPreset(name)
		for _, p := range []*big.Int{pr.P, pr.Q} {
			m := mont.New(p)
			if want := m.Words() == 1 || m.Words() == 4; m.Fixed() != want {
				t.Errorf("%s: %d-word modulus runs fixed kernel %v, want %v", name, m.Words(), m.Fixed(), want)
			}
		}
	}
	for _, name := range []string{group.PresetTest64, group.PresetSim256} {
		pr := group.MustPreset(name)
		if !mont.New(pr.P).Fixed() || !mont.New(pr.Q).Fixed() {
			t.Errorf("%s: p and q must both run a fixed-width kernel", name)
		}
	}
}

func TestKernelsMatchGenericAndBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, p := range kernelModuli(rng) {
		ops := operands(rng, p, 6)
		for _, a := range ops {
			for _, b := range ops {
				checkMul(t, p, a, b)
			}
		}
	}
}

func TestPlainProductsMatchBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, p := range kernelModuli(rng) {
		ops := operands(rng, p, 4)
		for _, a := range ops {
			for _, b := range ops {
				checkPlain(t, p, a, b, ops[rng.Intn(len(ops))])
			}
		}
	}
}

// FuzzMontMul checks the kernel a modulus selects against the generic
// loop and big.Int, for arbitrary odd moduli of 1-8 words (the top word
// optionally forced near 2^64) and arbitrary operands below them. Run with
// `go test -fuzz FuzzMontMul ./internal/mont`; without -fuzz the seed
// corpus doubles as a regression test.
func FuzzMontMul(f *testing.F) {
	for _, p := range presetModuli() {
		f.Add(uint8(0), p.Bytes(), []byte{0x01}, new(big.Int).Sub(p, big.NewInt(1)).Bytes())
	}
	f.Add(uint8(0x83), []byte{0xff}, []byte{0xff, 0xfe}, []byte{0x7f})
	f.Add(uint8(0x80), []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, shape uint8, mod, ab, bb []byte) {
		p := new(big.Int).SetBytes(mod)
		if k := int(shape&7) + 1; shape&0x80 != 0 {
			// Force the top word of a k-word modulus near 2^64.
			top := new(big.Int).SetUint64(^uint64(0) - uint64(shape&0x70)<<8)
			p.Mod(p, new(big.Int).Lsh(big.NewInt(1), uint(64*(k-1))))
			p.Add(p, top.Lsh(top, uint(64*(k-1))))
		} else if p.BitLen() > 512 {
			p.Rsh(p, uint(p.BitLen()-512))
		}
		p.SetBit(p, 0, 1)
		if p.Cmp(big.NewInt(3)) < 0 {
			p.SetInt64(3)
		}
		a := new(big.Int).SetBytes(ab)
		b := new(big.Int).SetBytes(bb)
		a.Mod(a, p)
		b.Mod(b, p)
		checkMul(t, p, a, b)
		checkPlain(t, p, a, b, a)
	})
}

// BenchmarkMontMul times one Montgomery product with the selected
// fixed-width kernel and with the generic loop, the plain-domain MulInto
// that field and Group.MulInto run, and the big.Int Mul+Mod pair the
// latter replaces, at each preset's p and q.
func BenchmarkMontMul(b *testing.B) {
	for _, name := range []string{group.PresetTest64, group.PresetDemo128, group.PresetSim256, group.PresetSecure512} {
		pr := group.MustPreset(name)
		for _, mod := range []struct {
			name string
			p    *big.Int
		}{{"p", pr.P}, {"q", pr.Q}} {
			rng := rand.New(rand.NewSource(1))
			x := new(big.Int).Rand(rng, mod.p)
			y := new(big.Int).Rand(rng, mod.p)
			prefix := name + "/" + mod.name + "/"
			ctxs := []*mont.Ctx{mont.NewGeneric(mod.p)}
			if m := mont.New(mod.p); m.Fixed() {
				ctxs = append(ctxs, m)
			}
			for _, m := range ctxs {
				kind := "generic"
				if m.Fixed() {
					kind = "fixed"
				}
				t := m.Temp()
				mx, my := m.ToMont(x, t), m.ToMont(y, t)
				out := m.NewElem()
				b.Run(prefix+kind, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m.Mul(out, mx, my, t)
					}
				})
			}
			m := mont.New(mod.p)
			b.Run(prefix+"mulinto", func(b *testing.B) {
				var s mont.Scratch
				z := new(big.Int)
				for i := 0; i < b.N; i++ {
					m.MulInto(z, x, y, &s)
				}
			})
			b.Run(prefix+"mulmod", func(b *testing.B) {
				z, quo := new(big.Int), new(big.Int)
				for i := 0; i < b.N; i++ {
					quo.QuoRem(z.Mul(x, y), mod.p, z)
				}
			})
		}
	}
}
