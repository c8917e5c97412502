package dmw

import (
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

// TestAllocBudgetRun is the CI allocation gate on the whole protocol
// (`make allocs-gate`): a bare Run, auctions sequential, at the
// benchmark's proto-small shape (Test64, n = 5, m = 2, W = {1,2,3}, c = 0,
// so sigma = 4) must stay within a fixed allocs/run budget.
//
// Measured: ~581 allocs/run with each round's share checks merged into
// one pass by the driver; ~740 with every agent checking its own shares,
// each auction's agents dealing their
// shares over the auction's one scratch; ~760 with a scratch per agent
// and Phase I's public data read from the
// group's shared table (field.Nodes), messages sent as pointers into the
// auction's storage and each kind of agent state in one slab per auction;
// ~1,230 with Phase III checked on column products
// (no n x n table of Gamma values) and each pseudonym's powers in one
// slab; ~1,280 with each agent's Phase II (draws, commitments, shares
// dealt and received) and the Lagrange vectors in slabs; ~2,340 with a big.Int per drawn coefficient, commitment and
// share; ~2,790 with every agent doing the auction's public checks
// (Gamma table, eq. (11)/(13) verdicts, resolutions, winner) itself, its
// agents stepped in lockstep on one goroutine and each agent's
// coefficients drawn from a ChaCha8 stream embedded in it; ~3,170 with a
// goroutine, a math/rand source and a transport.Network endpoint per
// agent, and ~14,300 when every field add, multiply and reduce returned a
// fresh big.Int. The budget is 595, 14 above the measured count: above
// what toolchain drift moves (559 on 386), below the 20 that a scratch
// per agent's share dealing costs again, and far below what rebuilding
// Phase I's data per run (~70 at n = 5) or a per-agent share check costs.
func TestAllocBudgetRun(t *testing.T) {
	g := group.MustSharedFor(group.PresetTest64)
	allocBudgetRun(t, runAt(g, 5, 2, []int{1, 2, 3}), 595)
}

// TestAllocBudgetRunCrypto is TestAllocBudgetRun at the benchmark's
// proto-crypto shape (Sim256, n = 12, m = 1, W = {1..11}, c = 0, so
// sigma = 12), as the server runs it.
//
// Measured: ~469 allocs/run with the round's share checks merged by the
// driver, the way every Run checks them; ~532 with them merged through a
// cross-job queue, the auction's agents dealing shares over one scratch;
// ~552 with a scratch per agent (two allocations each, its Horner words),
// Phase I's data shared per group, messages sent as pointers and agent
// state in per-auction slabs; ~1,390 before that, of which ~250 rebuilt
// Phase I's data, 132 boxed shares and ~410 were agent state and payloads
// allocated per agent. The budget is 482, 13 above (471 on 386): a
// scratch per agent again (24 at n = 12), rebuilding Phase I's data or
// boxing shares again fails it.
func TestAllocBudgetRunCrypto(t *testing.T) {
	g := group.MustSharedFor(group.PresetSim256)
	allocBudgetRun(t, runAt(g, 12, 1, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}), 482)
}

// runAt is a bare Run on g of n agents and m tasks with bids drawn from w
// at seed 1, its auctions sequential.
func runAt(g *group.Group, n, m int, w []int) RunConfig {
	rng := rand.New(rand.NewSource(1))
	bids := make([][]int, n)
	for i := range bids {
		bids[i] = make([]int, m)
		for j := range bids[i] {
			bids[i][j] = w[rng.Intn(len(w))]
		}
	}
	return RunConfig{
		Params: g.Params(), Group: g,
		Bid:      bidcode.Config{W: w, C: 0, N: n},
		TrueBids: bids, Seed: 1, Parallelism: 1,
	}
}

func allocBudgetRun(t *testing.T, cfg RunConfig, budget float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
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
	run() // warm the group's pooled Montgomery workspaces and its Phase I table
	avg := testing.AllocsPerRun(10, run)
	t.Logf("dmw.Run (n=%d, m=%d, sigma=%d): %.0f allocs/run (budget %.0f)", cfg.Bid.N, cfg.Tasks(), cfg.Bid.Sigma(), avg, budget)
	if avg > budget {
		t.Errorf("dmw.Run allocates %.0f/run, budget %.0f — an in-place path regressed", avg, budget)
	}
}
