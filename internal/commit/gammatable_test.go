package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

func gammaFixture(t *testing.T) (*group.Group, *GammaTable, [][]*big.Int, []*Commitments, []*big.Int) {
	t.Helper()
	g, cfg, alphas := testSetup(t)
	bids := []int{2, 1, 3, 4, 2, 3, 1, 4}
	_, comms := buildAll(t, g, cfg, bids)
	powers := make([][]*big.Int, len(alphas))
	for i, a := range alphas {
		powers[i] = PowersOf(g.Scalars(), a, cfg.Sigma())
	}
	gt, err := NewGammaTable(g, comms, powers)
	if err != nil {
		t.Fatal(err)
	}
	return g, gt, powers, comms, alphas
}

func TestGammaTableMatchesDirect(t *testing.T) {
	g, gt, powers, comms, _ := gammaFixture(t)
	for k := 0; k < len(powers); k++ {
		for l := 0; l < len(comms); l++ {
			want, err := comms[l].Gamma(g, powers[k])
			if err != nil {
				t.Fatal(err)
			}
			got, err := gt.At(k, l)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("Gamma(%d,%d) mismatch", k, l)
			}
		}
	}
}

func TestGammaTableVerifyAgreesWithPackageFunc(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	bids := []int{2, 1, 3, 4, 2, 3, 1, 4}
	encs, comms := buildAll(t, g, cfg, bids)
	powers := make([][]*big.Int, len(alphas))
	for i, a := range alphas {
		powers[i] = PowersOf(g.Scalars(), a, cfg.Sigma())
	}
	gt, err := NewGammaTable(g, comms, powers)
	if err != nil {
		t.Fatal(err)
	}
	for k, alpha := range alphas {
		for _, exclude := range []int{-1, 1} {
			lambda, psi := lambdaPsiAt(g, encs, alpha, exclude)
			errDirect := VerifyLambdaPsi(g, comms, powers[k], lambda, psi, exclude)
			errCached := gt.VerifyLambdaPsi(k, lambda, psi, exclude)
			if (errDirect == nil) != (errCached == nil) {
				t.Fatalf("k=%d exclude=%d: direct %v vs cached %v", k, exclude, errDirect, errCached)
			}
			// Corrupted lambda must fail through the cache too.
			if err := gt.VerifyLambdaPsi(k, g.Mul(lambda, g.Params().Z1), psi, exclude); !errors.Is(err, ErrLambdaPsiCheck) {
				t.Fatalf("cached verify accepted corrupt lambda: %v", err)
			}
		}
	}
}

func TestGammaTableErrors(t *testing.T) {
	g, gt, powers, comms, _ := gammaFixture(t)
	if _, err := gt.At(-1, 0); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := gt.At(0, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := gt.VerifyLambdaPsi(0, nil, big.NewInt(1), -1); err == nil {
		t.Error("nil lambda accepted")
	}
	if _, err := NewGammaTable(g, comms[:2], powers); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Missing commitments surface as errors at access time.
	withNil := append([]*Commitments(nil), comms...)
	withNil[3] = nil
	gt2, err := NewGammaTable(g, withNil, powers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gt2.At(0, 3); err == nil {
		t.Error("nil commitments accepted")
	}
}

// BenchmarkGammaCache compares the package-level VerifyLambdaPsi, which
// folds the column products on every call, with one table, which folds
// them once per excluded agent, over both eq-(11) passes.
func BenchmarkGammaCache(b *testing.B) {
	g := group.MustNew(group.MustPreset(group.PresetTest64))
	cfg := bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: 8}
	bids := []int{2, 1, 3, 4, 2, 3, 1, 4}
	alphas, err := bidcode.Pseudonyms(g.Scalars(), cfg.N)
	if err != nil {
		b.Fatal(err)
	}
	sigma := cfg.Sigma()
	encs := make([]*bidcode.EncodedBid, len(bids))
	comms := make([]*Commitments, len(bids))
	for i, y := range bids {
		enc, err := bidcode.Encode(cfg, y, g.Scalars(), rand.New(rand.NewSource(int64(300+i))))
		if err != nil {
			b.Fatal(err)
		}
		encs[i] = enc
		c, err := New(g, enc, sigma)
		if err != nil {
			b.Fatal(err)
		}
		comms[i] = c
	}
	powers := make([][]*big.Int, len(alphas))
	lambdas := make([]*big.Int, len(alphas))
	psis := make([]*big.Int, len(alphas))
	for k, a := range alphas {
		powers[k] = PowersOf(g.Scalars(), a, sigma)
		lambdas[k], psis[k] = lambdaPsiAt(g, encs, a, -1)
	}

	b.Run("uncached-two-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range alphas {
				if err := VerifyLambdaPsi(g, comms, powers[k], lambdas[k], psis[k], -1); err != nil {
					b.Fatal(err)
				}
			}
			for k := range alphas {
				_ = VerifyLambdaPsi(g, comms, powers[k], lambdas[k], psis[k], 1)
			}
		}
	})
	b.Run("cached-two-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gt, err := NewGammaTable(g, comms, powers)
			if err != nil {
				b.Fatal(err)
			}
			for k := range alphas {
				if err := gt.VerifyLambdaPsi(k, lambdas[k], psis[k], -1); err != nil {
					b.Fatal(err)
				}
			}
			for k := range alphas {
				_ = gt.VerifyLambdaPsi(k, lambdas[k], psis[k], 1)
			}
		}
	})
}
