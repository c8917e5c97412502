package relaynet

import (
	"net"
	"sync"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/payment"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

func startRelay(t *testing.T, n int) *Relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Serve(ln, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestServeValidatesN(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Serve(ln, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestDialHandshake(t *testing.T) {
	r := startRelay(t, 3)
	c, err := Dial(r.Addr().String(), 0, WithRoundTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ID() != 0 || c.N() != 3 {
		t.Errorf("handshake: id=%d n=%d", c.ID(), c.N())
	}
	if _, err := Dial(r.Addr().String(), 9); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := Dial(r.Addr().String(), -1); err == nil {
		t.Error("negative id accepted")
	}
}

// TestRefusedHelloTakesNoSeat: a connection whose hello the relay refuses
// (out-of-range id, garbage, duplicate id) uses up none of the n seats,
// so the real agents still join and finish a round.
func TestRefusedHelloTakesNoSeat(t *testing.T) {
	r := startRelay(t, 2)
	addr := r.Addr().String()
	opt := WithRoundTimeout(2 * time.Second)
	if _, err := Dial(addr, 9, opt); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.Write([]byte{0, 0, 0, 0, 0}) // a zero-length frame
	_ = raw.Close()
	var c [2]*Client
	for i := range c {
		if c[i], err = Dial(addr, i, opt); err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		defer c[i].Close()
		if i == 0 {
			if _, err := Dial(addr, 0, opt); err == nil {
				t.Fatal("duplicate id accepted")
			}
		}
	}
	var wg sync.WaitGroup
	var got [2][]transport.Message
	for i := range c {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = c[i].Send(1-i, transport.KindAbort, 0, protocol.AbortPayload{Reason: "hi"})
			got[i] = c[i].FinishRound()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != 1 || c[i].Err() != nil {
			t.Errorf("agent %d got %d messages (err %v), want 1", i, len(got[i]), c[i].Err())
		}
	}
}

func TestRoundTripMessagesOverTCP(t *testing.T) {
	r := startRelay(t, 2)
	addr := r.Addr().String()
	var c [2]*Client
	for i := range c {
		cl, err := Dial(addr, i, WithRoundTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		c[i] = cl
	}
	var wg sync.WaitGroup
	var got [2][]transport.Message
	for i := range c {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c[i].Send(1-i, transport.KindAbort, 7, protocol.AbortPayload{Reason: "ping"}); err != nil {
				t.Error(err)
			}
			got[i] = c[i].FinishRound()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != 1 {
			t.Fatalf("client %d got %d messages", i, len(got[i]))
		}
		m := got[i][0]
		if m.From != 1-i || m.Kind != transport.KindAbort || m.Task != 7 {
			t.Errorf("client %d message %+v", i, m)
		}
		if p, ok := m.Payload.(protocol.AbortPayload); !ok || p.Reason != "ping" {
			t.Errorf("client %d payload %+v", i, m.Payload)
		}
	}
	if r.Stats().Messages() != 2 {
		t.Errorf("relay counted %d messages, want 2", r.Stats().Messages())
	}
}

// sessionBidsTCP is the shared workload for the end-to-end TCP tests.
var sessionBidsTCP = [][]int{
	{1, 4},
	{3, 2},
	{4, 4},
	{2, 3},
	{4, 1},
	{3, 4},
}

// runTCPSessions runs a full DMW execution with every agent on its own
// TCP connection to a relay, the real multi-process deployment shape.
func runTCPSessions(t *testing.T, strategies []*strategy.Hooks) (*Relay, []*protocol.SessionResult) {
	t.Helper()
	n := len(sessionBidsTCP)
	r := startRelay(t, n)
	addr := r.Addr().String()
	results := make([]*protocol.SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr, i, WithRoundTimeout(30*time.Second))
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			cfg := protocol.SessionConfig{
				Params: group.MustPreset(group.PresetTest64),
				Bid:    bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: n},
				MyBids: sessionBidsTCP[i],
				Seed:   42,
			}
			if strategies != nil {
				cfg.Strategy = strategies[i]
			}
			results[i], errs[i] = protocol.RunAgentSession(cfg, i, cl)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return r, results
}

func TestFullProtocolOverTCP(t *testing.T) {
	r, results := runTCPSessions(t, nil)

	// Views must agree across processes and match the in-memory engine.
	ref, err := protocol.Run(protocol.RunConfig{
		Params:   group.MustPreset(group.PresetTest64),
		Bid:      bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: 6},
		TrueBids: sessionBidsTCP,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		for j, v := range res.Views {
			if *v != ref.Auctions[j] {
				t.Errorf("agent %d task %d over TCP: %+v, in-memory %+v", i, j, v, ref.Auctions[j])
			}
		}
	}

	// The relay observed all claims; settlement is unanimous and equals
	// the in-memory payments.
	claims := r.Claims()
	if len(claims) != 6 {
		t.Fatalf("relay observed %d claims, want 6", len(claims))
	}
	st, err := payment.Settle(claims, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Unanimous() {
		t.Error("TCP settlement not unanimous")
	}
	for i := range st.Issued {
		if st.Issued[i] != ref.Outcome.Payments[i] {
			t.Errorf("payment[%d] over TCP = %d, in-memory %d", i, st.Issued[i], ref.Outcome.Payments[i])
		}
	}

	// Message accounting matches the in-memory fabric's (same protocol,
	// same cost model).
	if r.Stats().Messages() != ref.Stats.Messages() {
		t.Errorf("TCP relay counted %d messages, in-memory %d", r.Stats().Messages(), ref.Stats.Messages())
	}
}

func TestDeviatorOverTCPAborts(t *testing.T) {
	strategies := make([]*strategy.Hooks, 6)
	strategies[1] = strategy.CorruptAllShares()
	_, results := runTCPSessions(t, strategies)
	for i, res := range results {
		for j, v := range res.Views {
			if !v.Aborted {
				t.Errorf("agent %d task %d completed despite corrupt shares over TCP", i, j)
			}
		}
	}
}

func TestCrashOverTCP(t *testing.T) {
	strategies := make([]*strategy.Hooks, 6)
	strategies[3] = strategy.CrashFault()
	_, results := runTCPSessions(t, strategies)
	// Live agents must all abort (missing messages), not hang.
	for i, res := range results {
		if i == 3 {
			continue
		}
		for j, v := range res.Views {
			if !v.Aborted {
				t.Errorf("agent %d task %d completed despite crash", i, j)
			}
		}
	}
}

// TestRoundTimeoutDegradesGracefully: when a peer never finishes the
// round, the waiting client's FinishRound times out and returns nil
// instead of hanging — the protocol engine then treats every message as
// withheld and aborts.
func TestRoundTimeoutDegradesGracefully(t *testing.T) {
	r := startRelay(t, 2)
	c0, err := Dial(r.Addr().String(), 0, WithRoundTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	// Agent 1 connects but never calls FinishRound.
	c1, err := Dial(r.Addr().String(), 1, WithRoundTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	start := time.Now()
	msgs := c0.FinishRound()
	if msgs != nil {
		t.Errorf("timed-out round returned messages: %v", msgs)
	}
	if c0.Err() == nil {
		t.Error("timeout not recorded in Err()")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("FinishRound blocked past the timeout")
	}
}

// TestClientSendAfterCrashIsNoOp mirrors the in-memory semantics.
func TestClientSendAfterCrash(t *testing.T) {
	r := startRelay(t, 2)
	c0, err := Dial(r.Addr().String(), 0, WithRoundTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c0.Crash()
	if err := c0.Send(1, transport.KindShare, 0, nil); err != nil {
		t.Errorf("send after crash errored: %v", err)
	}
	if msgs := c0.FinishRound(); msgs != nil {
		t.Error("crashed client received messages")
	}
}

// TestClientValidatesRecipient mirrors the in-memory endpoint.
func TestClientValidatesRecipient(t *testing.T) {
	r := startRelay(t, 2)
	c0, err := Dial(r.Addr().String(), 0, WithRoundTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if err := c0.Send(5, transport.KindShare, 0, nil); err == nil {
		t.Error("out-of-range recipient accepted")
	}
	if err := c0.Send(0, transport.KindShare, 0, nil); err != nil {
		t.Error("self-send should be a silent no-op")
	}
}
