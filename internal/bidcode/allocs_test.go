package bidcode

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/field"
	"dmw/internal/group"
)

// TestAllocBudgetShareFor is the CI allocation gate on dealing a share
// (`make allocs-gate`): four Horner evaluations over one scratch and one
// slab of result headers. What remains is the slab, the four results'
// words and the scratch's — 7 allocs/op, independent of sigma. The form
// that allocated per coefficient cost 285 at this shape.
func TestAllocBudgetShareFor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 12
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
