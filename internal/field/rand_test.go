package field_test

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"dmw/internal/field"
	"dmw/internal/group"
)

// TestRandIntoMatchesCryptoRand: RandInto and RandNonZeroInto are
// crypto/rand.Int done in place. On twin seeded streams they must return
// the values crypto/rand.Int(src, q) and crypto/rand.Int(src, q-1)+1
// return and leave both streams at the same position, draw after draw:
// every coefficient a seeded run draws, and so its transcript, depends on
// it. The bounds cover every preset's q and q-1, a power of two (q-1 for
// q = 257 and 65537) and the 2-bit field q = 3.
func TestRandIntoMatchesCryptoRand(t *testing.T) {
	var qs []*big.Int
	for _, name := range group.PresetNames() {
		qs = append(qs, group.MustPreset(name).Q)
	}
	qs = append(qs, big.NewInt(257), big.NewInt(65537), big.NewInt(3))
	for _, q := range qs {
		f := field.MustNew(q)
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		t.Run(fmt.Sprintf("q=%x", q), func(t *testing.T) {
			ref := mrand.New(mrand.NewSource(int64(q.BitLen())))
			got := mrand.New(mrand.NewSource(int64(q.BitLen())))
			var s field.Scratch
			z := &f.Slab(1)[0]
			for i := 0; i < 10000; i++ {
				want, err := rand.Int(ref, q)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.RandInto(z, got, &s); err != nil {
					t.Fatal(err)
				}
				if z.Cmp(want) != 0 {
					t.Fatalf("draw %d: RandInto = %v, crypto/rand.Int(q) = %v", i, z, want)
				}
				want, err = rand.Int(ref, qm1)
				if err != nil {
					t.Fatal(err)
				}
				want.Add(want, big.NewInt(1))
				if _, err := f.RandNonZeroInto(z, got, &s); err != nil {
					t.Fatal(err)
				}
				if z.Cmp(want) != 0 {
					t.Fatalf("draw %d: RandNonZeroInto = %v, crypto/rand.Int(q-1)+1 = %v", i, z, want)
				}
				if i%1000 == 999 {
					sameStreamPosition(t, ref, got)
				}
			}
		})
	}
}

// sameStreamPosition reads the next bytes of both streams: equal bytes
// mean both draws consumed the same amount.
func sameStreamPosition(t *testing.T, a, b *mrand.Rand) {
	t.Helper()
	var ba, bb [16]byte
	a.Read(ba[:])
	b.Read(bb[:])
	if !bytes.Equal(ba[:], bb[:]) {
		t.Fatalf("streams diverged: next bytes %x vs %x", ba, bb)
	}
}

// TestRandWrappersMatchInPlace: Rand and RandNonZero draw what the
// in-place forms draw.
func TestRandWrappersMatchInPlace(t *testing.T) {
	f := field.MustNew(group.MustPreset(group.PresetSim256).Q)
	a, b := mrand.New(mrand.NewSource(9)), mrand.New(mrand.NewSource(9))
	var s field.Scratch
	z := new(big.Int)
	for i := 0; i < 100; i++ {
		x, err := f.Rand(a)
		if err != nil {
			t.Fatal(err)
		}
		if f.RandInto(z, b, &s); x.Cmp(z) != 0 {
			t.Fatalf("Rand = %v, RandInto = %v", x, z)
		}
		if x, err = f.RandNonZero(a); err != nil {
			t.Fatal(err)
		}
		if f.RandNonZeroInto(z, b, &s); x.Cmp(z) != 0 {
			t.Fatalf("RandNonZero = %v, RandNonZeroInto = %v", x, z)
		}
	}
}
