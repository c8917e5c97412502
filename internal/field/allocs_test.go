package field

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestAllocBudgetKernel is the CI allocation gate on the in-place kernel
// (`make allocs-gate`): once a destination and a Scratch have grown to the
// operand size, every kernel operation must allocate nothing — that is
// the whole point of having it beside the value-returning methods.
func TestAllocBudgetKernel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	// Sim256's q (four words) and Test64's q (one word): the two widths
	// the benchmark runs, each with its own Montgomery kernel.
	for _, hex := range []string{"e462d13d9ce3f7cd8ad0e30a01f0f21d6e2c9d5c4b047e391e5ab291", "ca1ecdfc1bcf"} {
		q, _ := new(big.Int).SetString(hex, 16)
		f := MustNew(q)
		rng := rand.New(rand.NewSource(3))
		a, _ := f.Rand(rng)
		b, _ := f.Rand(rng)
		c, _ := f.Rand(rng)
		vec := []*big.Int{a, b, c}
		var s Scratch
		z := new(big.Int)
		ops := func() {
			f.MulAddInto(z, a, b, c, &s)
			f.MulInto(z, z, b, &s)
			f.AddInto(z, z, a, &s)
			f.SubInto(z, b, z, &s)
			f.ReduceInto(z, z, &s)
			f.ReduceInto(z, z.Add(z, q), &s) // the out-of-range path
			if _, err := f.InnerProductInto(z, vec, vec, &s); err != nil {
				t.Fatal(err)
			}
		}
		ops() // grow z and the scratch
		if avg := testing.AllocsPerRun(100, ops); avg != 0 {
			t.Errorf("q=%s: in-place kernel allocates %.1f/op with warm storage, want 0", hex, avg)
		}
	}
}
