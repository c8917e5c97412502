package dmw

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/payment"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

// runSessions plays every agent's session over one shared in-memory
// network, the same deployment shape as the TCP relay.
func runSessions(t *testing.T, bids [][]int, strategies []*strategy.Hooks, seed int64) []*SessionResult {
	t.Helper()
	results, _, _ := runSessionsOn(t, bids, strategies, seed, false)
	return results
}

// runSessionsOn is runSessions with echo verification selectable; it also
// returns the shared network and the agents' endpoints.
func runSessionsOn(t *testing.T, bids [][]int, strategies []*strategy.Hooks, seed int64, echo bool) ([]*SessionResult, *transport.Network, []*transport.Endpoint) {
	t.Helper()
	n := len(bids)
	nw, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*SessionResult, n)
	errs := make([]error, n)
	eps := make([]*transport.Endpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := nw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		cfg := SessionConfig{
			Params:           group.MustPreset(group.PresetTest64),
			Bid:              bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: n},
			MyBids:           bids[i],
			Seed:             seed,
			EchoVerification: echo,
		}
		if strategies != nil {
			cfg.Strategy = strategies[i]
		}
		wg.Add(1)
		go func(i int, ep *transport.Endpoint, cfg SessionConfig) {
			defer wg.Done()
			results[i], errs[i] = RunAgentSession(cfg, i, ep)
		}(i, ep, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d session: %v", i, err)
		}
	}
	return results, nw, eps
}

var sessionBids = [][]int{
	{1, 4, 2},
	{3, 2, 2},
	{4, 4, 3},
	{2, 3, 1},
	{4, 1, 4},
	{3, 4, 2},
}

// TestSessionsMatchMonolithicRun is the driver-equivalence table: for
// every catalogued deviation (and BogusEcho) by one agent, with echo
// verification off and on, at seeds 1-3, Run's lockstep driver must equal
// n blocking sessions over one transport.Network in every agent's view,
// the claims and the settlement, agent 0's round logs, and the message,
// byte and round counts.
//
// With echo on, an agent that disengages (crashes its endpoint on a digest
// mismatch or an abort seen during the digest round) stays crashed on a
// session's one fabric for the rest of the session, while Run gives every
// auction its own fabric and lets the agent file its claim. The echo half
// therefore plays one task, and compares the counts with the Phase IV
// claim round taken out of both sides.
func TestSessionsMatchMonolithicRun(t *testing.T) {
	const n, deviator = 6, 2
	w := []int{1, 2, 3, 4}
	cases := func() []*strategy.Hooks {
		return append(strategy.Catalog(w, n, deviator), strategy.BogusEcho())
	}
	for k := range cases() {
		for _, echo := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/echo=%v/seed=%d", cases()[k].Name, echo, seed)
				t.Run(name, func(t *testing.T) {
					bids := sessionBids
					if echo {
						bids = make([][]int, n)
						for i := range bids {
							bids[i] = sessionBids[i][:1]
						}
					}
					runStrats := make([]*strategy.Hooks, n)
					runStrats[deviator] = cases()[k]
					sessStrats := make([]*strategy.Hooks, n)
					sessStrats[deviator] = cases()[k]
					res := mustRun(t, RunConfig{
						Params:           testParams,
						Bid:              bidcode.Config{W: w, C: 1, N: n},
						TrueBids:         bids,
						Strategies:       runStrats,
						Seed:             seed,
						EchoVerification: echo,
						Record:           true,
					})
					sess, nw, eps := runSessionsOn(t, bids, sessStrats, seed, echo)
					compareDrivers(t, res, sess, nw, eps)
				})
			}
		}
	}
}

func compareDrivers(t *testing.T, res *Result, sess []*SessionResult, nw *transport.Network, eps []*transport.Endpoint) {
	t.Helper()
	n := len(sess)
	var claims []payment.Claim
	runLive, sessLive, disengaged := false, false, false
	for i, s := range sess {
		for j, v := range s.Views {
			if *v != *res.views[i][j] {
				t.Errorf("agent %d task %d: session view %+v != run view %+v", i, j, *v, *res.views[i][j])
			}
		}
		if s.Claim != nil {
			claims = append(claims, payment.Claim{From: i, Payments: s.Claim})
		}
		runLive = runLive || !crashed(res.views[i])
		sessLive = sessLive || !eps[i].Crashed()
		disengaged = disengaged || eps[i].Crashed() && !crashed(s.Views)
	}
	if !reflect.DeepEqual(claims, res.Transcript.Claims) {
		t.Errorf("session claims %v != run claims %v", claims, res.Transcript.Claims)
	}
	if len(claims) > 0 {
		st, err := payment.Settle(claims, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, res.Settlement) {
			t.Errorf("session settlement %+v != run settlement %+v", st, res.Settlement)
		}
	}
	if !reflect.DeepEqual(sess[0].RoundLogs, res.RoundLogs) {
		t.Errorf("agent 0 round logs:\n session %q\n run     %q", sess[0].RoundLogs, res.RoundLogs)
	}
	// The auctions' counts: everything but the Phase IV claim round,
	// whose messages are 8n bytes each.
	auctionCounts := func(st *transport.Stats, live bool) [3]int64 {
		claims := st.ByKind(transport.KindPaymentClaim)
		rounds := st.Rounds()
		if live {
			rounds--
		}
		return [3]int64{st.Messages() - claims, st.Bytes() - 8*int64(n)*claims, rounds}
	}
	if got, want := auctionCounts(nw.Stats(), sessLive), auctionCounts(res.Stats, runLive); got != want {
		t.Errorf("auction msgs/bytes/rounds: sessions %v, run %v", got, want)
	}
	if disengaged {
		return
	}
	if got, want := [3]int64{nw.Stats().Messages(), nw.Stats().Bytes(), nw.Stats().Rounds()},
		[3]int64{res.Stats.Messages(), res.Stats.Bytes(), res.Stats.Rounds()}; got != want {
		t.Errorf("msgs/bytes/rounds: sessions %v, run %v", got, want)
	}
}

func TestSessionViewsAgreeAndSettle(t *testing.T) {
	results := runSessions(t, sessionBids, nil, 7)
	// All views agree.
	for j := range results[0].Views {
		for i := 1; i < len(results); i++ {
			if *results[i].Views[j] != *results[0].Views[j] {
				t.Fatalf("task %d: view divergence between agents 0 and %d", j, i)
			}
		}
	}
	// Claims settle unanimously.
	var claims []payment.Claim
	for i, r := range results {
		if r.Claim == nil {
			t.Fatalf("agent %d submitted no claim", i)
		}
		claims = append(claims, payment.Claim{From: i, Payments: r.Claim})
	}
	st, err := payment.Settle(claims, len(results))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Unanimous() {
		t.Error("honest sessions did not settle unanimously")
	}
}

func TestSessionWithDeviatorAborts(t *testing.T) {
	strategies := make([]*strategy.Hooks, 6)
	strategies[2] = strategy.CorruptAllShares()
	results := runSessions(t, sessionBids, strategies, 9)
	for i, r := range results {
		for j, v := range r.Views {
			if !v.Aborted {
				t.Errorf("agent %d task %d not aborted despite corrupt shares", i, j)
			}
		}
	}
}

func TestSessionCrashPropagatesAcrossTasks(t *testing.T) {
	strategies := make([]*strategy.Hooks, 6)
	strategies[4] = strategy.CrashFault()
	results := runSessions(t, sessionBids, strategies, 11)
	// The crashed agent's own views are all "crashed" and it files no
	// claim.
	for _, v := range results[4].Views {
		if v.AbortReason != "crashed" {
			t.Errorf("crashed agent view: %+v", v)
		}
	}
	if results[4].Claim != nil {
		t.Error("crashed agent submitted a claim")
	}
	// Everyone else aborts every auction.
	for j := range results[0].Views {
		if !results[0].Views[j].Aborted {
			t.Errorf("task %d completed despite crash", j)
		}
	}
}

func TestSessionConfigValidate(t *testing.T) {
	good := SessionConfig{
		Params: group.MustPreset(group.PresetTest64),
		Bid:    bidcode.Config{W: []int{1, 2}, C: 0, N: 4},
		MyBids: []int{1, 2},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Params = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil params accepted")
	}
	bad = good
	bad.MyBids = nil
	if err := bad.Validate(); err == nil {
		t.Error("no tasks accepted")
	}
	bad = good
	bad.MyBids = []int{7}
	if err := bad.Validate(); err == nil {
		t.Error("bid outside W accepted")
	}
	if _, err := RunAgentSession(good, 9, nil); err == nil {
		t.Error("out-of-range agent accepted")
	}
	nw, _ := transport.New(4)
	ep, _ := nw.Endpoint(0)
	if _, err := RunAgentSession(SessionConfig{}, 0, ep); err == nil {
		t.Error("invalid config accepted")
	}
}
