package dmw

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/group"
	"dmw/internal/strategy"
)

// resolveFixture builds a minimal agentRun (no transport) whose
// environment carries precomputed powers and the run's resolver, exactly
// as RunAgentSession constructs it.
func resolveFixture(t *testing.T, cfg bidcode.Config) *agentRun {
	t.Helper()
	g, err := group.New(testParams)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Scalars()
	nodes, err := f.Nodes(cfg.N, cfg.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	resolver := commit.ResolverOver(cfg.DegreeCandidates(), nodes)
	env := &auctionEnv{
		task:     0,
		n:        cfg.N,
		cfg:      cfg,
		alphas:   nodes.Alphas,
		powers:   nodes.Powers,
		resolver: resolver,
	}
	return &agentRun{env: env, me: 0, g: g, f: f}
}

// TestResolveDegreeSecondPriceSemantics pins the winner-exclusion
// contract of resolveDegree (referenced by its doc comment): the winner's
// e-shares are removed from the SUMS inside the published bar-Lambda
// values (equation (15)); its node is NOT removed from the resolution. Every agent — the winner included —
// still publishes a bar-Lambda over its own pseudonym, and the first d+1
// pseudonyms are consumed in order regardless of who won. The resolved
// degree of the winner-less sum is sigma - y**, so the second price is
// the lowest bid among the non-winners.
func TestResolveDegreeSecondPriceSemantics(t *testing.T) {
	cfg := bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: 6}
	a := resolveFixture(t, cfg)
	g, f, env := a.g, a.f, a.env
	sigma := cfg.Sigma()

	bids := []int{2, 1, 4, 3, 2, 4} // winner: agent 1 (y* = 1); second price y** = 2
	const winner = 1
	rng := rand.New(rand.NewSource(99))
	encs := make([]*bidcode.EncodedBid, cfg.N)
	for i, y := range bids {
		enc, err := bidcode.Encode(cfg, y, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = enc
	}

	// lambda[k] = z1^{sum_l e_l(alpha_k)} over the given sender set: the
	// consensus value of the published (bar-)Lambda at pseudonym k after
	// homomorphic aggregation, for ALL k including the winner's own node.
	lambdasOver := func(skip int) []*big.Int {
		out := make([]*big.Int, env.n)
		for k := 0; k < env.n; k++ {
			sum := new(big.Int)
			for l, enc := range encs {
				if l == skip {
					continue
				}
				sum = f.Add(sum, enc.E.Eval(env.alphas[k]))
			}
			out[k] = g.Pow1(sum)
		}
		return out
	}

	// First-price pass: all senders included.
	firstDeg, err := a.resolveDegree(lambdasOver(-1))
	if err != nil {
		t.Fatalf("first-price resolution: %v", err)
	}
	if got, want := sigma-firstDeg, 1; got != want {
		t.Fatalf("first price = %d, want %d (resolved degree %d)", got, want, firstDeg)
	}

	// Second-price pass: the winner's e-shares are excluded from the sums
	// but its node still participates. The resolved degree must be
	// sigma - y** with y** the minimum over the non-winners.
	barLambda := lambdasOver(winner)
	if barLambda[winner] == nil {
		t.Fatal("fixture bug: winner's node must still publish a bar-Lambda")
	}
	secondDeg, err := a.resolveDegree(barLambda)
	if err != nil {
		t.Fatalf("second-price resolution: %v", err)
	}
	if got, want := sigma-secondDeg, 2; got != want {
		t.Fatalf("second price = %d, want %d (resolved degree %d)", got, want, secondDeg)
	}

	// Dropping the winner's NODE (the wrong reading of winner exclusion)
	// shifts which pseudonyms fill the first d+1 slots and must not be what
	// the implementation does: nulling the winner's entry makes resolution
	// fail, proving the node is genuinely consumed.
	broken := lambdasOver(winner)
	broken[winner] = nil
	if _, err := a.resolveDegree(broken); err == nil {
		t.Fatal("resolution succeeded without the winner's node; exclusion must not remove nodes")
	} else if !strings.Contains(err.Error(), "missing resolution input from agent 1") {
		t.Fatalf("missing-node error = %v, want attribution to agent 1", err)
	}
}

// bisectProbes is the resolver's probe sequence in closed form: the
// candidate indices its lower-bound bisection over u usable candidates
// visits when the first passing index is r. There are at most
// ceil(log2(u+1)) of them.
func bisectProbes(u, r int) []int {
	var probes []int
	for lo, hi := 0, u; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		probes = append(probes, mid)
		if mid >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return probes
}

// TestResolutionOpsClosedForm pins Theorem 12's per-agent group work
// exactly, derived from n, sigma, the disclosers and the resolver's
// probes. Under CountOps nothing is shared, so every agent's counter holds
// its own work, per auction:
//
//   - Phase II: 3 sigma two-term commitments (commit.New);
//   - the batched share check of III.1: one two-term commitment and one
//     3 sigma (n-1)-term multi-exponentiation;
//   - equation (11), first and second price: n sigma-term
//     multi-exponentiations per pass, on column products;
//   - equation (13): one sigma-term multi-exponentiation and one Pow1 per
//     disclosure; an honest run has y*+1 disclosers;
//   - equation (12), per pass: one (d_i+1)-term multi-exponentiation for
//     each index i of bisectProbes(u, r), where r indexes the resolved
//     degree (the ascending scan it replaced cost r+1 of them);
//   - Pow1 and Pow2 for each of the two published pairs.
//
// Phase III is O(n sigma) terms per agent. Evaluating the n x n table of
// Gamma values instead cost n^2 sigma terms for equation (11) and
// n sigma per disclosure: 192 multi-exps and 2,566 terms per agent at the
// proto-crypto shape, where the closed form gives 72 and 862.
func TestResolutionOpsClosedForm(t *testing.T) {
	for _, tc := range []struct {
		name   string
		preset string
		n, m   int
		w      []int
	}{
		{"proto-crypto", group.PresetSim256, 12, 1, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{"W={1,2,3}", group.PresetTest64, 5, 2, []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := group.MustSharedFor(tc.preset)
			rng := rand.New(rand.NewSource(1))
			bids := make([][]int, tc.n)
			for i := range bids {
				bids[i] = make([]int, tc.m)
				for j := range bids[i] {
					bids[i][j] = tc.w[rng.Intn(len(tc.w))]
				}
			}
			cfg := bidcode.Config{W: tc.w, N: tc.n}
			res := mustRun(t, RunConfig{Params: g.Params(), Group: g, Bid: cfg, TrueBids: bids, Seed: 1, CountOps: true})

			n, sigma := uint64(tc.n), uint64(cfg.Sigma())
			cands := cfg.DegreeCandidates()
			u := len(cands)
			bound := bits.Len(uint(u)) // ceil(log2(u+1))
			var calls, terms, exp uint64
			add := func(c, t uint64) { calls, terms, exp = calls+c, terms+t, exp+t }
			for _, a := range res.Auctions {
				if a.Aborted {
					t.Fatalf("auction %d aborted: %s", a.Task, a.AbortReason)
				}
				add(3*sigma, 6*sigma)   // commit.New
				add(2, 2+3*sigma*(n-1)) // batched share check
				add(2*n, 2*n*sigma)     // eq (11), both passes
				disclosers := uint64(a.FirstPrice + 1)
				add(disclosers, disclosers*sigma) // eq (13)
				exp += disclosers + 4             // eq (13)'s Pow1s; two pairs' Pow1 and Pow2
				for _, price := range []int{a.FirstPrice, a.SecondPrice} {
					probes := bisectProbes(u, sort.SearchInts(cands, cfg.Sigma()-price))
					if len(probes) > bound {
						t.Fatalf("%d probes over %d candidates, bound %d", len(probes), u, bound)
					}
					for _, i := range probes {
						add(1, uint64(cands[i]+1))
					}
				}
			}
			for i, c := range res.AgentOps {
				if c.MultiExps() != calls || c.MultiExpTerms() != terms || c.Exp() != exp {
					t.Errorf("agent %d: %d multi-exps, %d terms, %d exps; closed form %d, %d, %d",
						i, c.MultiExps(), c.MultiExpTerms(), c.Exp(), calls, terms, exp)
				}
			}
			t.Logf("per agent: %d multi-exps, %d terms, %d exps", calls, terms, exp)
		})
	}
}

// TestBatchedVerificationAttributesTamperedShare drives a share tamper
// through strategy.Hooks and checks the batched verification path still
// aborts with the seed's exact attribution: the abort reason must name
// the GUILTY SENDER, not merely report that the batch identity failed.
// This is the end-to-end counterpart of the commit-level batch tests.
//
// Each shape runs twice: with CountOps, where every agent checks its own
// shares alone, and as a plain Run, where the driver checks a round's
// shares in one merged pass over all receivers. Both must name the guilty
// sender with the same abort reasons, and leave the other auction alone.
// Test64 at n = 32 merges 32 requests of 3*32*31 terms each into one
// pass.
func TestBatchedVerificationAttributesTamperedShare(t *testing.T) {
	const guilty = 2
	w31 := make([]int, 31) // W = {1..31}, so sigma = 32
	for i := range w31 {
		w31[i] = i + 1
	}
	shapes := []struct {
		name string
		cfg  RunConfig
	}{
		{"", baseConfig(5)},
		{", Test64 n=32", runAt(group.MustSharedFor(group.PresetTest64), 32, 2, w31)},
	}
	for _, sh := range shapes {
		var reasons [2][]string
		for k, name := range []string{"batch", "coalesced"} {
			t.Run(name+sh.name, func(t *testing.T) {
				cfg := sh.cfg
				cfg.CountOps = name == "batch"
				cfg.Strategies = make([]*strategy.Hooks, cfg.Bid.N)
				cfg.Strategies[guilty] = &strategy.Hooks{
					TamperShare: func(task, to int, s *bidcode.Share) {
						if task == 0 {
							s.E.Add(s.E, big.NewInt(1)) // break eq (7) for every receiver
						}
					},
				}
				res := mustRun(t, cfg)
				a := res.Auctions[0]
				if !a.Aborted {
					t.Fatal("auction 0 completed despite tampered shares")
				}
				want := fmt.Sprintf("share from agent %d inconsistent", guilty)
				if !strings.Contains(a.AbortReason, want) {
					t.Fatalf("abort reason %q does not attribute agent %d (want substring %q)", a.AbortReason, guilty, want)
				}
				// The untampered auctions must still complete normally.
				for _, other := range res.Auctions[1:] {
					if other.Aborted {
						t.Errorf("auction %d aborted (%s); tamper was scoped to task 0", other.Task, other.AbortReason)
					}
				}
				for _, a := range res.Auctions {
					reasons[k] = append(reasons[k], a.AbortReason)
				}
			})
		}
		if !slices.Equal(reasons[0], reasons[1]) {
			t.Errorf("abort reasons%s: per-agent %q, merged %q", sh.name, reasons[0], reasons[1])
		}
	}
}
