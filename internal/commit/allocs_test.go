package commit

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/group"
)

// TestAllocBudgetBatchVerify is the CI allocation gate on the
// share-verification hot path (`make allocs-gate`): BatchVerifyShares
// at the stress shape (7 senders, sigma = 32, 672 multi-exp terms)
// must stay within a fixed allocs/op budget.
//
// Measured: 26 allocs/op after the pooled-scratch work (montWS arena,
// rlcAcc slabs, the SetBits exponent trick); the same path allocated
// 3767/op before it. The budget is 150 — loose enough to survive
// toolchain drift, tight enough that reintroducing ANY per-term
// allocation (one new(big.Int) per term is +672) fails immediately.
func TestAllocBudgetBatchVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 150

	g := group.MustNew(group.MustPreset(group.PresetTest64))
	const n, sigma = 8, 32
	rng := rand.New(rand.NewSource(5))
	items := make([]BatchItem, 0, n-1)
	for k := 1; k < n; k++ {
		enc := syntheticBid(g, sigma, rng)
		c, err := New(g, enc, sigma)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Sender: k, C: c, S: enc.ShareFor(big.NewInt(9))})
	}
	pw := PowersOf(g.Scalars(), big.NewInt(9), sigma)
	coeffRng := rand.New(rand.NewSource(7))

	// Warm the sync.Pool workspaces so the steady state is measured,
	// not first-use growth.
	if err := BatchVerifyShares(g, pw, items, coeffRng); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := BatchVerifyShares(g, pw, items, coeffRng); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BatchVerifyShares: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("BatchVerifyShares allocates %.1f/op, budget %d — a pooled path regressed", avg, budget)
	}
}

// TestAllocBudgetCommit is the CI allocation gate on committing to a bid
// (`make allocs-gate`): commit.New at proto-crypto's shape (Sim256,
// sigma = 12). The product e*f and the 3*sigma commitments each fill one
// slab of headers and words in place, so the count does not grow with
// sigma: 8 allocs/op (the product polynomial's four, the commitment
// slab's three and the Commitments). With a fresh big.Int per commitment
// and fresh words per product coefficient it was 89.
func TestAllocBudgetCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 8
	g := group.MustSharedFor(group.PresetSim256)
	const sigma = 12
	enc := syntheticBid(g, sigma, rand.New(rand.NewSource(3)))
	if _, err := New(g, enc, sigma); err != nil { // warm the pooled workspaces
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := New(g, enc, sigma); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("commit.New, sigma %d: %.1f allocs/op (budget %d)", sigma, avg, budget)
	if avg > budget {
		t.Errorf("commit.New allocates %.1f/op, budget %d — a commitment or a product coefficient is allocating again", avg, budget)
	}
}

// TestAllocBudgetPowersOf is the CI allocation gate on a pseudonym's
// power vector (`make allocs-gate`): PowersOf at proto-crypto's shape
// (Sim256, sigma = 12) fills one slab, so it costs 3 allocs/op whatever
// sigma (the pointers, the headers and the words). With each power
// growing its own words it cost 14.
func TestAllocBudgetPowersOf(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 3
	f := group.MustSharedFor(group.PresetSim256).Scalars()
	const sigma = 12
	alpha := big.NewInt(12)
	avg := testing.AllocsPerRun(100, func() { PowersOf(f, alpha, sigma) })
	t.Logf("PowersOf, sigma %d: %.1f allocs/op (budget %d)", sigma, avg, budget)
	if avg > budget {
		t.Errorf("PowersOf allocates %.1f/op, budget %d — a power is growing its own words again", avg, budget)
	}
}
