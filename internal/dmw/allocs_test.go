package dmw

import (
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

// TestAllocBudgetRun is the CI allocation gate on the whole protocol
// (`make allocs-gate`): a bare Run — no coalescer, auctions sequential —
// at the benchmark's proto-small shape (Test64, n = 5, m = 2, W = {1,2,3},
// c = 0, so sigma = 4) must stay within a fixed allocs/run budget.
//
// Measured: ~2,350 allocs/run with each auction's public checks (Gamma
// table, eq. (11)/(13) verdicts, resolutions, winner) done once for all
// its agents; ~2,790 with every agent checking them itself, its agents
// stepped in lockstep on one goroutine and each agent's coefficients
// drawn from a ChaCha8 stream embedded in it; ~3,170 with a goroutine, a
// math/rand source and a transport.Network endpoint per agent, and
// ~14,300 when every field add, multiply and reduce returned a fresh
// big.Int. The budget is 3,000: above what toolchain drift moves, below
// what reintroducing one allocating loop costs (Horner evaluation alone
// was ~3,800, the per-candidate winner interpolation ~1,800).
func TestAllocBudgetRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 3000
	const n, m = 5, 2
	w := []int{1, 2, 3}

	g := group.MustSharedFor(group.PresetTest64)
	rng := rand.New(rand.NewSource(1))
	bids := make([][]int, n)
	for i := range bids {
		bids[i] = make([]int, m)
		for j := range bids[i] {
			bids[i][j] = w[rng.Intn(len(w))]
		}
	}
	cfg := RunConfig{
		Params: g.Params(), Group: g,
		Bid:      bidcode.Config{W: w, C: 0, N: n},
		TrueBids: bids, Seed: 1, Parallelism: 1,
	}
	run := func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Auctions {
			if a.Aborted {
				t.Fatalf("auction %d aborted: %s", a.Task, a.AbortReason)
			}
		}
	}
	run() // warm the group's pooled Montgomery workspaces
	avg := testing.AllocsPerRun(10, run)
	t.Logf("dmw.Run (Test64, n=%d, m=%d): %.0f allocs/run (budget %d)", n, m, avg, budget)
	if avg > budget {
		t.Errorf("dmw.Run allocates %.0f/run, budget %d — an in-place path regressed", avg, budget)
	}
}
