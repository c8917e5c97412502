package dmw_test

import (
	"sync"
	"testing"

	"dmw/internal/audit"
	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

// TestSharedNodesUnderConcurrentRuns: Phase I's public data (pseudonyms,
// their powers, the Lagrange vectors of equation (12)) is one table per
// group's scalar field, grown by whichever run first needs more. Runs of
// n = 5, 12 and 7 agents (sigma = n) on one fresh group, all at once and
// two of them with a deviating agent, must each agree with the auditor
// and with n blocking sessions, which build their own group. Afterwards
// the table must equal freshly computed values, and a second group must
// hold a table of its own. Run it under -race.
func TestSharedNodesUnderConcurrentRuns(t *testing.T) {
	const m, deviator = 2, 2
	params := group.MustPreset(group.PresetTest64)
	g, err := group.New(params)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n     int
		hooks *strategy.Hooks
	}{
		{5, nil},
		{12, nil},
		{7, nil},
		{12, strategy.CorruptShareTo(0)},
		{7, strategy.BogusLambda()},
	}
	configs := make([]dmw.RunConfig, len(cases))
	results := make([]*dmw.Result, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for k, c := range cases {
		w := make([]int, c.n-1)
		for i := range w {
			w[i] = i + 1
		}
		configs[k] = dmw.RunConfig{
			Params: params, Group: g,
			Bid:        bidcode.Config{W: w, C: 0, N: c.n},
			TrueBids:   randomBids(c.n, m, w, int64(k)),
			Strategies: make([]*strategy.Hooks, c.n),
			Seed:       int64(k + 1), Record: true,
		}
		configs[k].Strategies[deviator] = c.hooks
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = dmw.Run(configs[k])
		}(k)
	}
	wg.Wait()

	for k, cfg := range configs {
		if errs[k] != nil {
			t.Fatalf("run %d (n=%d): %v", k, cfg.Bid.N, errs[k])
		}
		res := results[k]
		for _, a := range res.Auctions {
			if a.Aborted != (cases[k].hooks != nil) {
				t.Errorf("run %d (n=%d) task %d: aborted %v (%s) with strategy %v", k, cfg.Bid.N, a.Task, a.Aborted, a.AbortReason, cases[k].hooks)
			}
		}
		rep, err := audit.Verify(params, res.Transcript)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Errorf("run %d (n=%d): audit findings %+v", k, cfg.Bid.N, rep.Findings)
		}
		for i, views := range sessionViews(t, cfg) {
			for j, v := range views {
				c := res.Auctions[j]
				if v.Aborted != c.Aborted || !c.Aborted && (v.Winner != c.Winner || v.FirstPrice != c.FirstPrice || v.SecondPrice != c.SecondPrice) {
					t.Errorf("run %d (n=%d): agent %d's session view of task %d %+v, run %+v", k, cfg.Bid.N, i, j, *v, c)
				}
			}
		}
	}

	f := g.Scalars()
	const n, sigma = 12, 12
	nodes, err := f.Nodes(n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	alphas, err := bidcode.Pseudonyms(f, n)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range alphas {
		if nodes.Alphas[k].Cmp(a) != 0 {
			t.Errorf("shared alpha_%d = %v, want %v", k, nodes.Alphas[k], a)
		}
		for l, p := range commit.PowersOf(f, a, sigma) {
			if nodes.Powers[k][l].Cmp(p) != 0 {
				t.Errorf("shared alpha_%d^%d = %v, want %v", k, l+1, nodes.Powers[k][l], p)
			}
		}
		rho, err := f.LagrangeAtZero(alphas[:k+1])
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rho {
			if nodes.Rhos[k][i].Cmp(r) != 0 {
				t.Errorf("shared rho_%d[%d] = %v, want %v", k, i, nodes.Rhos[k][i], r)
			}
		}
	}

	other, err := group.New(params)
	if err != nil {
		t.Fatal(err)
	}
	own, err := other.Scalars().Nodes(n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if own.Alphas[0] == nodes.Alphas[0] || own.Rhos[n-1][0] == nodes.Rhos[n-1][0] || own.Powers[0][0] == nodes.Powers[0][0] {
		t.Error("a second group reads the first group's table")
	}
	if own.Rhos[n-1][0].Cmp(nodes.Rhos[n-1][0]) != 0 {
		t.Error("a second group's table differs in value")
	}
}

// sessionViews plays cfg as n blocking sessions over one transport.Network
// and returns each agent's views.
func sessionViews(t *testing.T, cfg dmw.RunConfig) [][]*dmw.AuctionOutcome {
	t.Helper()
	n := cfg.Bid.N
	nw, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	views := make([][]*dmw.AuctionOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := nw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		scfg := dmw.SessionConfig{
			Params: cfg.Params, Bid: cfg.Bid, Strategy: cfg.Strategies[i], Seed: cfg.Seed,
			MyBids: make([]int, len(cfg.TrueBids[i])),
		}
		copy(scfg.MyBids, cfg.TrueBids[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := dmw.RunAgentSession(scfg, i, ep)
			if errs[i] = err; err == nil {
				views[i] = res.Views
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d session: %v", i, err)
		}
	}
	return views
}
