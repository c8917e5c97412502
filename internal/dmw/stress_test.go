package dmw

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/mechanism"
	"dmw/internal/strategy"
)

// TestStressLargeGame runs a bigger configuration (n = 16, m = 6, |W| = 5)
// end to end and checks equivalence with MinWork.
func TestStressLargeGame(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n, m = 16, 6
	w := []int{1, 2, 3, 4, 5}
	rng := rand.New(rand.NewSource(123))
	cfg := RunConfig{
		Params: group.MustPreset(group.PresetTest64),
		Bid:    bidcode.Config{W: w, C: 3, N: n},
		Seed:   123,
	}
	cfg.TrueBids = make([][]int, n)
	for i := range cfg.TrueBids {
		cfg.TrueBids[i] = make([]int, m)
		for j := range cfg.TrueBids[i] {
			cfg.TrueBids[i][j] = w[rng.Intn(len(w))]
		}
	}
	res := mustRun(t, cfg)
	ref, err := mechanism.MinWork{}.Run(bidsToInstance(cfg.TrueBids))
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range res.Auctions {
		if a.Aborted {
			t.Fatalf("task %d aborted: %s", j, a.AbortReason)
		}
		if a.Winner != ref.Schedule.Agent[j] || int64(a.SecondPrice) != ref.SecondPrice[j] {
			t.Errorf("task %d: (%d,%d) vs MinWork (%d,%d)",
				j, a.Winner, a.SecondPrice, ref.Schedule.Agent[j], ref.SecondPrice[j])
		}
	}
	if !res.Settlement.Unanimous() {
		t.Error("large honest game did not settle unanimously")
	}
}

// TestTwoDeviatorsCannotGainJointly pairs deviations: neither member of a
// two-agent deviating coalition may end up above its suggested-strategy
// utility. (The ex post Nash guarantee is unilateral, but these pairings
// also fail because each deviation is detected independently.)
func TestTwoDeviatorsCannotGain(t *testing.T) {
	const seed = 61
	honest := mustRun(t, baseConfig(seed))
	w := []int{1, 2, 3, 4}
	pairs := []struct {
		name   string
		d1, d2 *strategy.Hooks
	}{
		{"misreport+misreport", strategy.MisreportDelta(w, -1), strategy.MisreportDelta(w, -1)},
		{"misreport+lazy", strategy.MisreportDelta(w, -1), strategy.LazyVerifier()},
		{"corrupt+withhold-claim", strategy.CorruptAllShares(), strategy.WithholdPaymentClaim()},
		{"bogus-lambda+bogus-second", strategy.BogusLambda(), strategy.BogusSecondPrice()},
		{"eager+withhold-disclosure", strategy.EagerDisclosure(), strategy.WithholdDisclosure()},
	}
	for _, p := range pairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfg := baseConfig(seed)
			cfg.Strategies = make([]*strategy.Hooks, cfg.Bid.N)
			cfg.Strategies[0] = p.d1
			cfg.Strategies[3] = p.d2
			res := mustRun(t, cfg)
			for _, d := range []int{0, 3} {
				if res.Utilities[d] > honest.Utilities[d] {
					t.Errorf("deviator %d gains under %q: %d > %d",
						d, p.name, res.Utilities[d], honest.Utilities[d])
				}
			}
			for i, u := range res.Utilities {
				if i != 0 && i != 3 && u < 0 {
					t.Errorf("honest agent %d loses under %q", i, p.name)
				}
			}
		})
	}
}

// TestAllAgentsLazyStillCorrect: when every agent skips verification, an
// honest run still completes with the MinWork outcome (verification only
// guards against deviation, it does not feed the computation).
func TestAllAgentsLazyStillCorrect(t *testing.T) {
	cfg := baseConfig(63)
	cfg.Strategies = make([]*strategy.Hooks, cfg.Bid.N)
	for i := range cfg.Strategies {
		cfg.Strategies[i] = strategy.LazyVerifier()
	}
	res := mustRun(t, cfg)
	ref, err := mechanism.MinWork{}.Run(bidsToInstance(cfg.TrueBids))
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range res.Auctions {
		if a.Aborted || a.Winner != ref.Schedule.Agent[j] {
			t.Errorf("task %d wrong under all-lazy: %+v", j, a)
		}
	}
}

// TestSingletonBidSetDegenerate: |W| = 1 forces every agent to the same
// bid; the first agent wins every task at that price.
func TestSingletonBidSet(t *testing.T) {
	const n = 4
	cfg := RunConfig{
		Params: group.MustPreset(group.PresetTest64),
		Bid:    bidcode.Config{W: []int{2}, C: 1, N: n},
		TrueBids: [][]int{
			{2, 2}, {2, 2}, {2, 2}, {2, 2},
		},
		Seed: 65,
	}
	res := mustRun(t, cfg)
	for j, a := range res.Auctions {
		if a.Aborted || a.Winner != 0 || a.FirstPrice != 2 || a.SecondPrice != 2 {
			t.Errorf("task %d: %+v", j, a)
		}
	}
}

// TestRecordedTranscriptMatchesOutcome: the recorded transcript's claimed
// outcomes equal the consensus outcomes.
func TestRecordedTranscriptMatchesOutcome(t *testing.T) {
	cfg := baseConfig(67)
	cfg.Record = true
	res := mustRun(t, cfg)
	if res.Transcript == nil || len(res.Transcript.Auctions) != len(res.Auctions) {
		t.Fatal("transcript missing or wrong length")
	}
	for j, at := range res.Transcript.Auctions {
		if at.Claimed != res.Auctions[j] {
			t.Errorf("task %d: transcript claims %+v, consensus %+v", j, at.Claimed, res.Auctions[j])
		}
	}
	if len(res.Transcript.Claims) != cfg.Bid.N {
		t.Errorf("transcript has %d claims, want %d", len(res.Transcript.Claims), cfg.Bid.N)
	}
}

// TestVirtualTimeZeroWithoutDelays: the latency model is inert unless a
// delay matrix is installed.
func TestVirtualTimeZeroWithoutDelays(t *testing.T) {
	res := mustRun(t, baseConfig(69))
	if res.Stats.VirtualTime() != 0 {
		t.Errorf("virtual time %v without a delay model", res.Stats.VirtualTime())
	}
	if res.Stats.Rounds() == 0 {
		t.Error("no rounds recorded")
	}
}

// TestDelayMatrixValidated: a wrong-shaped delay matrix is rejected, and
// a correct one produces positive virtual time.
func TestDelayMatrixValidated(t *testing.T) {
	cfg := baseConfig(71)
	cfg.Delays = make([][]time.Duration, 2) // wrong row count
	if _, err := Run(cfg); err == nil {
		t.Error("short delay matrix accepted")
	}
	cfg = baseConfig(71)
	n := cfg.Bid.N
	cfg.Delays = make([][]time.Duration, n) // rows too short
	if _, err := Run(cfg); err == nil {
		t.Error("delay matrix with short rows accepted")
	}
	cfg.Delays = uniformDelays(n, time.Millisecond)
	res := mustRun(t, cfg)
	if res.Stats.VirtualTime() <= 0 {
		t.Error("delay model produced zero virtual time")
	}
}

// uniformDelays builds an n x n matrix with delay d on every off-
// diagonal link.
func uniformDelays(n int, d time.Duration) [][]time.Duration {
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

// TestRealTimeDelaysWaitWallClock: under RealTimeDelays (dmwd's
// link_delay_ms) every round waits for its slowest message, so the run
// takes at least the virtual time it reports.
func TestRealTimeDelaysWaitWallClock(t *testing.T) {
	const d = 20 * time.Millisecond
	cfg := baseConfig(73)
	cfg.Delays = uniformDelays(cfg.Bid.N, d)
	cfg.RealTimeDelays = true
	start := time.Now()
	res := mustRun(t, cfg)
	elapsed := time.Since(start)
	if vt := res.Stats.VirtualTime(); vt < d || elapsed < vt {
		t.Errorf("run with %s links took %s for virtual time %s; want >= virtual time >= %s", d, elapsed, vt, d)
	}
}

// TestRealTimeDelaysOffIsFast: without RealTimeDelays the delay matrix
// is virtual-clock only: an hour per link costs no wall-clock time.
func TestRealTimeDelaysOffIsFast(t *testing.T) {
	const d = time.Hour
	cfg := baseConfig(73)
	cfg.Delays = uniformDelays(cfg.Bid.N, d)
	start := time.Now()
	res := mustRun(t, cfg)
	if elapsed := time.Since(start); elapsed >= d {
		t.Errorf("virtual-clock run took %s; must not sleep", elapsed)
	}
	if vt := res.Stats.VirtualTime(); vt < d || vt%d != 0 {
		t.Errorf("virtual time = %s, want a positive multiple of %s", vt, d)
	}
}

// TestRunStartsNoAgentGoroutines: Run steps each auction's agents on one
// goroutine, so the goroutines alive while agents bid stay within the
// auction workers (Parallelism, the caller among them) plus slack — not
// one per agent per auction (m + m·n at the proto-small shape).
func TestRunStartsNoAgentGoroutines(t *testing.T) {
	const n, m, par = 5, 2, 2
	w := []int{1, 2, 3}
	var peak atomic.Int64
	sample := &strategy.Hooks{ChooseBid: func(_, truth int) int {
		for g := int64(runtime.NumGoroutine()); ; {
			cur := peak.Load()
			if g <= cur || peak.CompareAndSwap(cur, g) {
				return truth
			}
		}
	}}
	strategies := make([]*strategy.Hooks, n)
	for i := range strategies {
		strategies[i] = sample
	}
	bids := make([][]int, n)
	for i := range bids {
		bids[i] = []int{w[i%3], w[(i+1)%3]}
	}
	baseline := runtime.NumGoroutine()
	mustRun(t, RunConfig{
		Params: testParams, Bid: bidcode.Config{W: w, C: 0, N: n},
		TrueBids: bids, Strategies: strategies, Seed: 1, Parallelism: par,
	})
	if got, limit := int(peak.Load()), baseline+par+2; got > limit {
		t.Errorf("%d goroutines while agents bid (baseline %d), limit %d", got, baseline, limit)
	}
}
