package dmw

import (
	"math/big"
	"sync"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

func TestEchoVerificationPreservesHonestOutcome(t *testing.T) {
	plain := mustRun(t, baseConfig(81))
	cfg := baseConfig(81)
	cfg.EchoVerification = true
	echoed := mustRun(t, cfg)
	for j := range plain.Auctions {
		if plain.Auctions[j] != echoed.Auctions[j] {
			t.Errorf("task %d: echo changed outcome %+v -> %+v", j, plain.Auctions[j], echoed.Auctions[j])
		}
	}
	if echoed.Stats.Messages() <= plain.Stats.Messages() {
		t.Error("echo rounds added no messages")
	}
	if echoed.Stats.ByKind(transport.KindEcho) == 0 {
		t.Error("no echo messages recorded")
	}
}

func TestBogusEchoAbortsEverything(t *testing.T) {
	cfg := baseConfig(83)
	cfg.EchoVerification = true
	cfg.Strategies = make([]*strategy.Hooks, cfg.Bid.N)
	cfg.Strategies[2] = strategy.BogusEcho()
	res := mustRun(t, cfg)
	for j, a := range res.Auctions {
		if !a.Aborted {
			t.Errorf("task %d completed despite bogus echo", j)
		}
	}
	for i, u := range res.Utilities {
		if u != 0 {
			t.Errorf("agent %d utility %d after echo abort", i, u)
		}
	}
}

func TestBogusEchoIsADeviation(t *testing.T) {
	if strategy.BogusEcho().IsSuggested() {
		t.Error("BogusEcho counted as suggested")
	}
}

// equivocatingConn wraps a transport.Conn and simulates a malicious
// broadcast medium (e.g. a dishonest relay): it tampers with what the
// victim receives AND suppresses the victim's outgoing abort broadcasts,
// so the other agents never learn that the victim saw different values.
type equivocatingConn struct {
	transport.Conn
	tamper func(msgs []transport.Message) []transport.Message
}

func (c *equivocatingConn) FinishRound() []transport.Message {
	return c.tamper(c.Conn.FinishRound())
}

// Broadcast drops the victim's abort announcements (the medium hides the
// evidence); everything else passes through.
func (c *equivocatingConn) Broadcast(kind transport.Kind, task int, payload any) error {
	if kind == transport.KindAbort {
		return nil
	}
	return c.Conn.Broadcast(kind, task, payload)
}

// equivocationVictim is the agent whose view the medium tampers. It sits
// at the highest pseudonym so neither winner identification nor degree
// resolution needs its publications — the precondition for SILENT
// divergence (a low-index victim's absence makes everyone else abort on
// missing data instead).
const equivocationVictim = 5

// runWithEquivocation runs sessions over a shared network where the
// victim's view of agent 3's Lambda is silently altered by the medium and
// the victim's abort broadcasts are suppressed. Each agent's endpoint is
// crashed when its session returns, modeling process exit (and standing
// in for the timeout that releases peers in a real deployment).
func runWithEquivocation(t *testing.T, echo bool) []*SessionResult {
	t.Helper()
	bids := [][]int{
		{1}, {3}, {4}, {2}, {4}, {3},
	}
	n := len(bids)
	nw, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := nw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		var conn transport.Conn = ep
		if i == equivocationVictim {
			conn = &equivocatingConn{Conn: ep, tamper: func(msgs []transport.Message) []transport.Message {
				for k, m := range msgs {
					if m.From == 3 && m.Kind == transport.KindLambdaPsi {
						p := m.Payload.(*LambdaPsiPayload)
						msgs[k].Payload = &LambdaPsiPayload{
							Lambda: new(big.Int).Add(p.Lambda, big.NewInt(1)),
							Psi:    p.Psi,
						}
					}
				}
				return msgs
			}}
		}
		cfg := SessionConfig{
			Params:           group.MustPreset(group.PresetTest64),
			Bid:              bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: n},
			MyBids:           bids[i],
			Seed:             85,
			EchoVerification: echo,
		}
		wg.Add(1)
		go func(i int, ep *transport.Endpoint, conn transport.Conn, cfg SessionConfig) {
			defer wg.Done()
			results[i], errs[i] = RunAgentSession(cfg, i, conn)
			ep.Crash() // process exit: release any peers still in rounds
		}(i, ep, conn, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return results
}

// TestEquivocationWithoutEchoDivergesViews: without echo verification, a
// malicious medium that tampers the victim's view AND suppresses its
// abort broadcast produces silent view divergence — the victim aborts
// while every other agent completes. Only the payment settlement's
// unanimity rule would catch this downstream.
func TestEquivocationWithoutEchoDivergesViews(t *testing.T) {
	results := runWithEquivocation(t, false)
	if !results[equivocationVictim].Views[0].Aborted {
		t.Fatal("victim did not notice the tampered Lambda")
	}
	for i := 0; i < len(results); i++ {
		if i == equivocationVictim {
			continue
		}
		if results[i].Views[0].Aborted {
			t.Errorf("agent %d aborted; expected silent divergence (victim's abort was suppressed)", i)
		}
	}
	// The infrastructure's last line of defense: the victim's claim
	// disagrees, so the settlement is not unanimous.
	victim, honest := results[equivocationVictim].Claim, results[0].Claim
	if victim != nil && honest != nil {
		same := true
		for k := range victim {
			if victim[k] != honest[k] {
				same = false
			}
		}
		if same {
			t.Error("diverged views produced identical claims")
		}
	}
}

// TestEquivocationWithEchoAbortsEveryone: with echo verification, the
// victim's digest (over the tampered view) reaches the others — the
// medium would have to forge per-recipient digests to hide it — so every
// agent aborts; no one acts on an equivocated view.
func TestEquivocationWithEchoAbortsEveryone(t *testing.T) {
	results := runWithEquivocation(t, true)
	for i, res := range results {
		if !res.Views[0].Aborted {
			t.Errorf("agent %d completed despite equivocation under echo", i)
		}
	}
}
