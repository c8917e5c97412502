package bidcode

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/field"
	"dmw/internal/group"
)

// TestAllocBudgetShareFor is the CI allocation gate on dealing a share
// (`make allocs-gate`): four Horner evaluations over one scratch into one
// slab of headers and words. What remains is that slab's two allocations
// and the one-share result slice — 3 allocs/op, independent of sigma.
// With the result headers in a slab but their words grown one by one it
// was 5; the form that allocated per coefficient cost 285.
func TestAllocBudgetShareFor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 6
	f := field.MustNew(group.MustPreset(group.PresetSim256).Q)
	cfg := Config{W: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, C: 0, N: 12} // proto-crypto's shape, sigma = 12
	enc, err := Encode(cfg, 5, f, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	alpha := big.NewInt(7)
	avg := testing.AllocsPerRun(100, func() { enc.ShareFor(alpha) })
	t.Logf("ShareFor, sigma 12: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("ShareFor allocates %.1f/op, budget %d — share evaluation is allocating per coefficient again", avg, budget)
	}
}

// TestAllocBudgetEncode is the CI allocation gate on an agent's Phase II
// scalar work (`make allocs-gate`): Encode draws e, f, g and h, then
// SharesFor deals a share to each of 12 pseudonyms, at proto-crypto's
// shape (sigma = 12). The coefficients are drawn in place into one slab
// and the 48 share values land in another, so the count does not grow
// with sigma or with the number of pseudonyms: 9 allocs/op. Drawing a
// fresh big.Int per coefficient (crypto/rand.Int) and a fresh scratch and
// header slab per share cost 218.
func TestAllocBudgetEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 16
	f := field.MustNew(group.MustPreset(group.PresetSim256).Q)
	cfg := Config{W: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, C: 0, N: 12}
	alphas, err := Pseudonyms(f, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	avg := testing.AllocsPerRun(100, func() {
		enc, err := Encode(cfg, 5, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		enc.SharesFor(alphas)
	})
	t.Logf("Encode + SharesFor, sigma 12, 12 pseudonyms: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("Encode + SharesFor allocates %.1f/op, budget %d — a draw or a share is allocating per coefficient again", avg, budget)
	}
}
