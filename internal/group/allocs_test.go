package group

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestAllocBudgetArithmetic is the CI allocation gate on the group's hot
// arithmetic (`make allocs-gate`), at both widths the benchmark runs
// (Test64: one word, Sim256: four): once the destination and the scratch
// have grown, Group.MulInto and the multi-exponentiation engine at the
// protocol's sigma = 12 allocate nothing per call, and MultiExp allocates
// only the value it returns.
func TestAllocBudgetArithmetic(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const sigma = 12
	for _, name := range []string{PresetTest64, PresetSim256} {
		pr := MustPreset(name)
		g := MustNew(pr)
		rng := rand.New(rand.NewSource(12))
		bases := make([]*big.Int, sigma)
		exps := make([]*big.Int, sigma)
		for i := range bases {
			bases[i] = g.Pow1(new(big.Int).Rand(rng, pr.Q))
			exps[i] = new(big.Int).Rand(rng, pr.Q)
		}
		var s MulScratch
		z := new(big.Int)
		mul := func() {
			g.MulInto(z, z, bases[0], &s)
			g.MulInto(z, bases[1], z, &s)
		}
		engine := func() { multiExpInto(g.mont, z, bases, exps, pr.Q) }
		multiExp := func() {
			if _, err := g.MultiExp(bases, exps); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			what   string
			run    func()
			budget float64
		}{
			{"MulInto", mul, 0},
			{"multi-exp engine into a warm destination", engine, 0},
			{"MultiExp (its result: the big.Int and its words)", multiExp, 2},
		} {
			z.Set(bases[2])
			c.run() // grow z, the scratch and the pooled workspaces
			if avg := testing.AllocsPerRun(50, c.run); avg > c.budget {
				t.Errorf("%s: %s allocates %.1f/op, budget %.0f", name, c.what, avg, c.budget)
			}
		}
	}
}
