package dmw

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/strategy"
)

// testParams is shared by all tests; Test64 keeps exponentiations cheap.
var testParams = group.MustPreset(group.PresetTest64)

func baseConfig(seed int64) RunConfig {
	return RunConfig{
		Params: testParams,
		Bid:    bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: 6},
		TrueBids: [][]int{
			{1, 4, 2},
			{3, 2, 2},
			{4, 4, 3},
			{2, 3, 1},
			{4, 1, 4},
			{3, 4, 2},
		},
		Seed: seed,
	}
}

// bidsToInstance converts a TrueBids matrix to a sched.Instance for the
// centralized mechanism.
func bidsToInstance(bids [][]int) *sched.Instance {
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, v := range row {
			in.Time[i][j] = int64(v)
		}
	}
	return in
}

func mustRun(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"nil params", func(c *RunConfig) { c.Params = nil }},
		{"bad bid config", func(c *RunConfig) { c.Bid.W = nil }},
		{"row count mismatch", func(c *RunConfig) { c.TrueBids = c.TrueBids[:3] }},
		{"row length mismatch", func(c *RunConfig) { c.TrueBids[2] = []int{1} }},
		{"bid outside W", func(c *RunConfig) { c.TrueBids[0][0] = 9 }},
		{"strategy count mismatch", func(c *RunConfig) { c.Strategies = make([]*strategy.Hooks, 2) }},
		{"no tasks", func(c *RunConfig) {
			for i := range c.TrueBids {
				c.TrueBids[i] = nil
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(1)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestEquivalenceWithMinWork is experiment F1: on identical reported
// types, the distributed mechanism must produce exactly the centralized
// MinWork outcome (allocation, prices, payments).
func TestEquivalenceWithMinWork(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w := []int{1, 2, 3, 4}
	for trial := 0; trial < 6; trial++ {
		cfg := RunConfig{
			Params: testParams,
			Bid:    bidcode.Config{W: w, C: 1, N: 6},
			Seed:   int64(1000 + trial),
		}
		cfg.TrueBids = make([][]int, 6)
		for i := range cfg.TrueBids {
			cfg.TrueBids[i] = make([]int, 3)
			for j := range cfg.TrueBids[i] {
				cfg.TrueBids[i][j] = w[rng.Intn(len(w))]
			}
		}
		res := mustRun(t, cfg)
		ref, err := mechanism.MinWork{}.Run(bidsToInstance(cfg.TrueBids))
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.Auctions {
			a := res.Auctions[j]
			if a.Aborted {
				t.Fatalf("trial %d task %d aborted: %s", trial, j, a.AbortReason)
			}
			if a.Winner != ref.Schedule.Agent[j] {
				t.Errorf("trial %d task %d: winner %d, MinWork %d", trial, j, a.Winner, ref.Schedule.Agent[j])
			}
			if int64(a.FirstPrice) != ref.FirstPrice[j] || int64(a.SecondPrice) != ref.SecondPrice[j] {
				t.Errorf("trial %d task %d: prices (%d,%d), MinWork (%d,%d)",
					trial, j, a.FirstPrice, a.SecondPrice, ref.FirstPrice[j], ref.SecondPrice[j])
			}
		}
		for i := range res.Outcome.Payments {
			if res.Outcome.Payments[i] != ref.Payments[i] {
				t.Errorf("trial %d: payment[%d] = %d, MinWork %d", trial, i, res.Outcome.Payments[i], ref.Payments[i])
			}
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a := mustRun(t, baseConfig(7))
	b := mustRun(t, baseConfig(7))
	for j := range a.Auctions {
		if a.Auctions[j] != b.Auctions[j] {
			t.Errorf("task %d differs: %+v vs %+v", j, a.Auctions[j], b.Auctions[j])
		}
	}
	for i := range a.Utilities {
		if a.Utilities[i] != b.Utilities[i] {
			t.Errorf("utility %d differs", i)
		}
	}
	// Message counts are structural and must match exactly.
	if a.Stats.Messages() != b.Stats.Messages() {
		t.Errorf("message counts differ: %d vs %d", a.Stats.Messages(), b.Stats.Messages())
	}
}

func TestParallelismDoesNotChangeOutcome(t *testing.T) {
	serial := baseConfig(9)
	serial.Parallelism = 1
	parallel := baseConfig(9)
	parallel.Parallelism = 4
	a, b := mustRun(t, serial), mustRun(t, parallel)
	for j := range a.Auctions {
		if a.Auctions[j] != b.Auctions[j] {
			t.Errorf("task %d differs under parallelism", j)
		}
	}
}

func TestTieBreaksToLowestPseudonym(t *testing.T) {
	cfg := baseConfig(11)
	// Make all agents bid 2 for task 0.
	for i := range cfg.TrueBids {
		cfg.TrueBids[i][0] = 2
	}
	res := mustRun(t, cfg)
	a := res.Auctions[0]
	if a.Aborted {
		t.Fatalf("tie auction aborted: %s", a.AbortReason)
	}
	if a.Winner != 0 {
		t.Errorf("tie winner = %d, want 0 (lowest pseudonym)", a.Winner)
	}
	if a.FirstPrice != 2 || a.SecondPrice != 2 {
		t.Errorf("tie prices = (%d,%d), want (2,2)", a.FirstPrice, a.SecondPrice)
	}
}

func TestExtremeBidsResolve(t *testing.T) {
	cfg := baseConfig(13)
	// All agents at the maximum bid.
	for i := range cfg.TrueBids {
		for j := range cfg.TrueBids[i] {
			cfg.TrueBids[i][j] = 4
		}
	}
	res := mustRun(t, cfg)
	for j, a := range res.Auctions {
		if a.Aborted || a.FirstPrice != 4 || a.SecondPrice != 4 {
			t.Errorf("task %d: %+v", j, a)
		}
	}
	// All agents at the minimum bid.
	for i := range cfg.TrueBids {
		for j := range cfg.TrueBids[i] {
			cfg.TrueBids[i][j] = 1
		}
	}
	cfg.Seed = 14
	res = mustRun(t, cfg)
	for j, a := range res.Auctions {
		if a.Aborted || a.FirstPrice != 1 || a.SecondPrice != 1 {
			t.Errorf("task %d: %+v", j, a)
		}
	}
}

func TestTwoAgentsMinimalConfig(t *testing.T) {
	cfg := RunConfig{
		Params:   testParams,
		Bid:      bidcode.Config{W: []int{1}, C: 0, N: 2},
		TrueBids: [][]int{{1}, {1}},
		Seed:     5,
	}
	res := mustRun(t, cfg)
	a := res.Auctions[0]
	if a.Aborted || a.Winner != 0 || a.FirstPrice != 1 || a.SecondPrice != 1 {
		t.Errorf("minimal run: %+v (reason %s)", a, a.AbortReason)
	}
}

func TestRoundLogsRecordProtocolSequence(t *testing.T) {
	res := mustRun(t, baseConfig(15))
	for j, log := range res.RoundLogs {
		joined := strings.Join(log, "\n")
		for _, want := range []string{"bidding", "Lambda/Psi", "first price", "winner identified", "second price"} {
			if !strings.Contains(joined, want) {
				t.Errorf("task %d log missing %q:\n%s", j, want, joined)
			}
		}
	}
}

// TestRoundLogsPinned pins Result.RoundLogs line for line at one seed
// (experiment F2 reads it against Fig. 2). Run formats only agent 0's
// log, the one it returns; a session returns its own agent's log, and at
// the same seed every agent narrates the same rounds.
func TestRoundLogsPinned(t *testing.T) {
	auction := func(winner string) []string {
		return []string{
			"round 1 (bidding): sent shares and commitments",
			"round 2 (allocating): published Lambda/Psi",
			"resolved first price y* = 1 (degree 5)",
			"round 3 (allocating): disclosure round, 2 designated",
			"winner identified: agent " + winner,
			"round (allocating): published second-price pair excluding winner " + winner,
			"resolved second price y** = 2",
		}
	}
	want := [][]string{auction("0"), auction("4"), auction("3")}
	if got := mustRun(t, baseConfig(15)).RoundLogs; !reflect.DeepEqual(got, want) {
		t.Errorf("Run round logs:\n got %q\nwant %q", got, want)
	}
	for i, res := range runSessions(t, baseConfig(15).TrueBids, nil, 15) {
		if !reflect.DeepEqual(res.RoundLogs, want) {
			t.Errorf("agent %d session round logs:\n got %q\nwant %q", i, res.RoundLogs, want)
		}
	}
}

func TestCountOps(t *testing.T) {
	cfg := baseConfig(17)
	cfg.CountOps = true
	res := mustRun(t, cfg)
	if res.AgentOps == nil {
		t.Fatal("AgentOps nil with CountOps set")
	}
	for i, c := range res.AgentOps {
		if c.Exp() == 0 || c.Mul() == 0 {
			t.Errorf("agent %d recorded no operations", i)
		}
	}
	res2 := mustRun(t, baseConfig(17))
	if res2.AgentOps != nil {
		t.Error("AgentOps non-nil without CountOps")
	}
}

func TestCommunicationScalesQuadratically(t *testing.T) {
	// DMW is Theta(m n^2): doubling n must roughly quadruple messages.
	msgs := func(n int) int64 {
		w := []int{1, 2}
		cfg := RunConfig{
			Params: testParams,
			Bid:    bidcode.Config{W: w, C: 0, N: n},
			Seed:   19,
		}
		cfg.TrueBids = make([][]int, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range cfg.TrueBids {
			cfg.TrueBids[i] = []int{w[rng.Intn(2)]}
		}
		res := mustRun(t, cfg)
		for _, a := range res.Auctions {
			if a.Aborted {
				t.Fatalf("n=%d aborted: %s", n, a.AbortReason)
			}
		}
		return res.Stats.Messages()
	}
	m4, m8, m16 := msgs(4), msgs(8), msgs(16)
	r1 := float64(m8) / float64(m4)
	r2 := float64(m16) / float64(m8)
	if r1 < 2.5 || r2 < 2.5 {
		t.Errorf("message growth ratios %.2f, %.2f; want ~4 (quadratic)", r1, r2)
	}
}

// --- Faithfulness and voluntary participation ---------------------------

// runWithDeviation runs the base game with one agent deviating.
func runWithDeviation(t *testing.T, seed int64, deviator int, h *strategy.Hooks) *Result {
	t.Helper()
	cfg := baseConfig(seed)
	cfg.Strategies = make([]*strategy.Hooks, cfg.Bid.N)
	cfg.Strategies[deviator] = h
	return mustRun(t, cfg)
}

// TestFaithfulness is the unit-level core of experiment E-faith: for
// every deviation in the catalog, the deviator's utility must not exceed
// its suggested-strategy utility (ex post Nash, Definition 9).
func TestFaithfulness(t *testing.T) {
	const seed = 21
	honest := mustRun(t, baseConfig(seed))
	for deviator := 0; deviator < 6; deviator += 3 { // agents 0 and 3
		for _, h := range strategy.Catalog([]int{1, 2, 3, 4}, 6, deviator) {
			h := h
			t.Run(h.Label()+"/agent"+string(rune('0'+deviator)), func(t *testing.T) {
				res := runWithDeviation(t, seed, deviator, h)
				if res.Utilities[deviator] > honest.Utilities[deviator] {
					t.Errorf("deviation %q increases agent %d utility: %d > %d",
						h.Label(), deviator, res.Utilities[deviator], honest.Utilities[deviator])
				}
			})
		}
	}
}

// TestStrongVoluntaryParticipation is the unit-level core of experiment
// E-svp: whatever one agent does, every suggested-strategy agent ends
// with non-negative utility (Definition 10).
func TestStrongVoluntaryParticipation(t *testing.T) {
	const seed = 23
	for _, deviator := range []int{0, 4} {
		for _, h := range strategy.Catalog([]int{1, 2, 3, 4}, 6, deviator) {
			h := h
			t.Run(h.Label(), func(t *testing.T) {
				res := runWithDeviation(t, seed, deviator, h)
				for i, u := range res.Utilities {
					if i != deviator && u < 0 {
						t.Errorf("honest agent %d has negative utility %d under %q", i, u, h.Label())
					}
				}
			})
		}
	}
}

// TestHarmlessDeviationsPreserveOutcome: deviations the paper identifies
// as harmless (eager disclosure, lazy verification when everyone else is
// honest) must leave the outcome identical to the honest one.
func TestHarmlessDeviationsPreserveOutcome(t *testing.T) {
	const seed = 25
	honest := mustRun(t, baseConfig(seed))
	for _, h := range []*strategy.Hooks{strategy.EagerDisclosure(), strategy.LazyVerifier()} {
		res := runWithDeviation(t, seed, 2, h)
		for j := range res.Auctions {
			if res.Auctions[j] != honest.Auctions[j] {
				t.Errorf("%q changed task %d outcome: %+v vs %+v",
					h.Label(), j, res.Auctions[j], honest.Auctions[j])
			}
		}
	}
}

// TestDetectableDeviationsAbort: deviations the paper's Theorem 4 proof
// says are caught must abort every auction (outcome voided for all).
func TestDetectableDeviationsAbort(t *testing.T) {
	const seed = 27
	detectable := []*strategy.Hooks{
		strategy.CorruptAllShares(),
		strategy.CorruptShareTo(1),
		strategy.WithholdShares(),
		strategy.WithholdCommitments(),
		strategy.CorruptCommitments(),
		strategy.BogusLambda(),
		strategy.WithholdLambda(),
		strategy.SpuriousAbort(),
		strategy.CrashFault(),
	}
	for _, h := range detectable {
		h := h
		t.Run(h.Label(), func(t *testing.T) {
			res := runWithDeviation(t, seed, 0, h)
			for j, a := range res.Auctions {
				if !a.Aborted {
					t.Errorf("task %d not aborted under %q", j, h.Label())
				}
				if a.Winner != -1 {
					t.Errorf("task %d has winner %d despite abort", j, a.Winner)
				}
			}
			for i, u := range res.Utilities {
				if u != 0 {
					t.Errorf("agent %d utility %d after global abort, want 0", i, u)
				}
			}
		})
	}
}

// TestDisclosureFaultToleranceRecovers: withheld or corrupted disclosures
// are replaced by other agents' disclosures (Theorem 8: "any of the other
// properly functioning agents can transmit their shares"), so the auction
// still completes with the honest outcome.
func TestDisclosureFaultToleranceRecovers(t *testing.T) {
	const seed = 29
	honest := mustRun(t, baseConfig(seed))
	for _, h := range []*strategy.Hooks{strategy.WithholdDisclosure(), strategy.BogusDisclosure()} {
		h := h
		t.Run(h.Label(), func(t *testing.T) {
			// Agent 0 is a designated discloser (lowest pseudonyms
			// disclose first), so its deviation exercises the fallback.
			res := runWithDeviation(t, seed, 0, h)
			for j := range res.Auctions {
				if res.Auctions[j].Aborted {
					t.Errorf("task %d aborted under %q: %s", j, h.Label(), res.Auctions[j].AbortReason)
					continue
				}
				if res.Auctions[j] != honest.Auctions[j] {
					t.Errorf("task %d outcome changed under %q", j, h.Label())
				}
			}
		})
	}
}

// TestPaymentClaimDisputeVoidsOnlyDisputedEntries: a tampered claim voids
// payment (and execution) for the disputed entries but honest agents keep
// zero, never negative, utility.
func TestPaymentClaimDispute(t *testing.T) {
	const seed = 31
	res := runWithDeviation(t, seed, 1, strategy.InflatePaymentClaim(1))
	if res.Settlement.Agreed[1] {
		t.Error("inflated claim not disputed")
	}
	if res.Settlement.Issued[1] != 0 {
		t.Errorf("disputed agent paid %d", res.Settlement.Issued[1])
	}
	if res.Utilities[1] != 0 {
		t.Errorf("disputed agent utility = %d, want 0", res.Utilities[1])
	}
}

func TestWithheldClaimVoidsEverything(t *testing.T) {
	const seed = 33
	res := runWithDeviation(t, seed, 2, strategy.WithholdPaymentClaim())
	if res.Settlement.Unanimous() {
		t.Error("settlement unanimous despite missing claim")
	}
	for i, u := range res.Utilities {
		if u != 0 {
			t.Errorf("agent %d utility = %d, want 0 (disputed settlement)", i, u)
		}
	}
}

// TestMisreportingFollowsVickreyLogic: bidding one step higher or lower
// within W must not beat truthful bidding, task by task.
func TestMisreportingFollowsVickreyLogic(t *testing.T) {
	const seed = 35
	honest := mustRun(t, baseConfig(seed))
	w := []int{1, 2, 3, 4}
	for _, delta := range []int{-1, +1} {
		for deviator := 0; deviator < 6; deviator++ {
			res := runWithDeviation(t, seed, deviator, strategy.MisreportDelta(w, delta))
			if res.Utilities[deviator] > honest.Utilities[deviator] {
				t.Errorf("agent %d gains by misreporting delta %d: %d > %d",
					deviator, delta, res.Utilities[deviator], honest.Utilities[deviator])
			}
		}
	}
}

func TestCrashFaultVoidsRun(t *testing.T) {
	res := runWithDeviation(t, 37, 3, strategy.CrashFault())
	for j, a := range res.Auctions {
		if !a.Aborted {
			t.Errorf("task %d completed despite crash fault", j)
		}
	}
	for i, u := range res.Utilities {
		if u != 0 {
			t.Errorf("agent %d utility %d after crash, want 0", i, u)
		}
	}
}

func TestOutcomeScheduleConsistency(t *testing.T) {
	res := mustRun(t, baseConfig(39))
	for j, a := range res.Auctions {
		if a.Aborted {
			continue
		}
		if res.Outcome.Schedule.Agent[j] != a.Winner {
			t.Errorf("task %d: schedule says %d, auction says %d", j, res.Outcome.Schedule.Agent[j], a.Winner)
		}
	}
}

// Property: on random well-formed games (random n, c, W, bids), the
// distributed mechanism reproduces centralized MinWork exactly.
func TestEquivalenceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3) // |W| in 1..3
		w := make([]int, k)
		for i := range w {
			w[i] = i + 1
		}
		c := rng.Intn(2)
		// n large enough for both the w_k < n-c+1 and the
		// eval-point constraints.
		minN := w[k-1] + c + 2
		n := minN + rng.Intn(3)
		m := 1 + rng.Intn(2)
		cfg := RunConfig{
			Params: testParams,
			Bid:    bidcode.Config{W: w, C: c, N: n},
			Seed:   seed,
		}
		if err := cfg.Bid.Validate(); err != nil {
			return true // skip infeasible shapes
		}
		cfg.TrueBids = make([][]int, n)
		for i := range cfg.TrueBids {
			cfg.TrueBids[i] = make([]int, m)
			for j := range cfg.TrueBids[i] {
				cfg.TrueBids[i][j] = w[rng.Intn(k)]
			}
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		ref, err := mechanism.MinWork{}.Run(bidsToInstance(cfg.TrueBids))
		if err != nil {
			return false
		}
		for j, a := range res.Auctions {
			if a.Aborted || a.Winner != ref.Schedule.Agent[j] ||
				int64(a.FirstPrice) != ref.FirstPrice[j] ||
				int64(a.SecondPrice) != ref.SecondPrice[j] {
				return false
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(97))}
	if err := quick.Check(check, qc); err != nil {
		t.Error(err)
	}
}
