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
// Measured: ~1,230 allocs/run with Phase III checked on column products
// (no n x n table of Gamma values) and each pseudonym's powers in one
// slab; ~1,280 with each agent's Phase II (draws, commitments, shares
// dealt and received) and the Lagrange vectors in slabs; ~2,340 with a big.Int per drawn coefficient, commitment and
// share; ~2,790 with every agent doing the auction's public checks
// (Gamma table, eq. (11)/(13) verdicts, resolutions, winner) itself, its
// agents stepped in lockstep on one goroutine and each agent's
// coefficients drawn from a ChaCha8 stream embedded in it; ~3,170 with a
// goroutine, a math/rand source and a transport.Network endpoint per
// agent, and ~14,300 when every field add, multiply and reduce returned a
// fresh big.Int. The budget is 1,420, about 15 % above the measured
// count: above what toolchain drift moves, below what reintroducing a
// per-coefficient draw or a per-share scratch costs (~1,000 between
// them).
func TestAllocBudgetRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const budget = 1420
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
