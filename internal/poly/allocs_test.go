package poly

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/field"
	"dmw/internal/group"
)

// allocField is Z_q at the Sim256 preset: several words per element.
func allocField() *field.Field { return field.MustNew(group.MustPreset(group.PresetSim256).Q) }

// TestAllocBudgetEval is the CI allocation gate on share evaluation
// (`make allocs-gate`). Horner's rule over one accumulator and one
// scratch allocates nothing per coefficient: EvalInto with warm storage
// is allocation-free, and Eval pays only for its result and a cold
// scratch whatever the degree: 3 allocs/op at degree 32, where the form
// that returned a fresh product, sum and reduction per coefficient
// allocated 240.
func TestAllocBudgetEval(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	f := allocField()
	p, err := NewRandomZeroConst(f, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(9)

	var s field.Scratch
	z := new(big.Int)
	p.EvalInto(z, x, &s)
	if avg := testing.AllocsPerRun(100, func() { p.EvalInto(z, x, &s) }); avg != 0 {
		t.Errorf("EvalInto allocates %.1f/op with warm storage, want 0", avg)
	}

	const budget = 8
	avg := testing.AllocsPerRun(100, func() { p.Eval(x) })
	t.Logf("Eval, degree 32: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("Eval allocates %.1f/op at degree 32, budget %d — Horner is allocating per coefficient again", avg, budget)
	}
}

// TestAllocBudgetInterpolateAtZero gates the interpolation's allocation
// count at s = 8 shares. Measured: 62/op — linear in s (the rho vector, the
// prefix products of the one shared inversion). The per-node form, with
// its s^2 differences and 2s inversions each returning fresh values,
// allocated 745/op. The budget of 80 fails any return to per-pair
// allocation.
func TestAllocBudgetInterpolateAtZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 80
	f := allocField()
	p, err := NewRandomZeroConst(f, 7, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]Share, 8)
	for i := range shares {
		x := big.NewInt(int64(i + 1))
		shares[i] = Share{Node: x, Value: p.Eval(x)}
	}
	avg := testing.AllocsPerRun(100, func() {
		v, err := InterpolateAtZero(f, shares)
		if err != nil || v.Sign() != 0 {
			t.Fatalf("InterpolateAtZero = %v, %v; want 0", v, err)
		}
	})
	t.Logf("InterpolateAtZero, 8 shares: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("InterpolateAtZero allocates %.1f/op at 8 shares, budget %d", avg, budget)
	}
}
