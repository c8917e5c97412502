package transport

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

type payload struct{ size int }

func (p payload) WireSize() int { return p.size }

func endpoints(t *testing.T, nw *Network) []*Endpoint {
	t.Helper()
	eps := make([]*Endpoint, nw.N())
	for i := range eps {
		ep, err := nw.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps
}

// runRound has every endpoint run fn concurrently and then finish the
// round, returning each endpoint's deliveries.
func runRound(t *testing.T, eps []*Endpoint, fn func(ep *Endpoint)) [][]Message {
	t.Helper()
	out := make([][]Message, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *Endpoint) {
			defer wg.Done()
			if fn != nil {
				fn(ep)
			}
			out[i] = ep.FinishRound()
		}(i, ep)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("round deadlocked")
	}
	return out
}

func TestNewValidatesN(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(-1); err == nil {
		t.Error("New(-1) succeeded")
	}
}

func TestEndpointRange(t *testing.T) {
	nw, _ := New(2)
	if _, err := nw.Endpoint(2); err == nil {
		t.Error("out-of-range endpoint granted")
	}
	if _, err := nw.Endpoint(-1); err == nil {
		t.Error("negative endpoint granted")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	nw, _ := New(3)
	eps := endpoints(t, nw)
	got := runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() == 0 {
			if err := ep.Send(2, KindShare, 7, payload{10}); err != nil {
				t.Error(err)
			}
		}
	})
	if len(got[2]) != 1 {
		t.Fatalf("recipient got %d messages, want 1", len(got[2]))
	}
	m := got[2][0]
	if m.From != 0 || m.To != 2 || m.Kind != KindShare || m.Task != 7 {
		t.Errorf("message = %+v", m)
	}
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Error("bystanders received messages")
	}
}

func TestSendToSelfIsNoOp(t *testing.T) {
	nw, _ := New(2)
	eps := endpoints(t, nw)
	got := runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() == 0 {
			_ = ep.Send(0, KindShare, 0, nil)
		}
	})
	if len(got[0]) != 0 {
		t.Error("self-send delivered")
	}
	if nw.Stats().Messages() != 0 {
		t.Error("self-send counted")
	}
}

func TestSendRejectsBadRecipient(t *testing.T) {
	nw, _ := New(2)
	ep, _ := nw.Endpoint(0)
	if err := ep.Send(5, KindShare, 0, nil); err == nil {
		t.Error("bad recipient accepted")
	}
}

func TestBroadcastCostsNMinusOne(t *testing.T) {
	nw, _ := New(5)
	eps := endpoints(t, nw)
	got := runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() == 1 {
			if err := ep.Broadcast(KindCommitments, 0, payload{3}); err != nil {
				t.Error(err)
			}
		}
	})
	for i := range got {
		want := 1
		if i == 1 {
			want = 0
		}
		if len(got[i]) != want {
			t.Errorf("agent %d got %d messages, want %d", i, len(got[i]), want)
		}
	}
	if n := nw.Stats().Messages(); n != 4 {
		t.Errorf("stats recorded %d messages, want 4", n)
	}
	if b := nw.Stats().Bytes(); b != 12 {
		t.Errorf("stats recorded %d bytes, want 12", b)
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	nw, _ := New(4)
	eps := endpoints(t, nw)
	got := runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() != 3 {
			_ = ep.Send(3, KindShare, 1, nil)
			_ = ep.Send(3, KindCommitments, 0, nil)
		}
	})
	msgs := got[3]
	if len(msgs) != 6 {
		t.Fatalf("got %d messages, want 6", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		a, b := msgs[i-1], msgs[i]
		if a.From > b.From || (a.From == b.From && a.Kind > b.Kind) {
			t.Fatalf("messages out of order: %+v before %+v", a, b)
		}
	}
}

func TestMessagesSpanRoundsCorrectly(t *testing.T) {
	nw, _ := New(2)
	eps := endpoints(t, nw)
	// Round 1: 0 -> 1.
	got := runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() == 0 {
			_ = ep.Send(1, KindShare, 0, nil)
		}
	})
	if len(got[1]) != 1 {
		t.Fatal("round 1 delivery failed")
	}
	// Round 2: nothing sent; inboxes must be empty again.
	got = runRound(t, eps, nil)
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Error("stale messages delivered in round 2")
	}
}

func TestCrashRemovesFromBarrier(t *testing.T) {
	nw, _ := New(3)
	eps := endpoints(t, nw)
	eps[2].Crash()
	if !eps[2].Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	// Remaining two agents complete a round without agent 2.
	live := eps[:2]
	got := runRound(t, live, func(ep *Endpoint) {
		_ = ep.Send(1-ep.ID(), KindShare, 0, nil)
	})
	if len(got[0]) != 1 || len(got[1]) != 1 {
		t.Error("live agents failed to exchange after crash")
	}
}

func TestCrashedSendsAndDeliveriesLost(t *testing.T) {
	nw, _ := New(3)
	eps := endpoints(t, nw)
	eps[2].Crash()
	got := runRound(t, eps[:2], func(ep *Endpoint) {
		if ep.ID() == 0 {
			_ = ep.Send(2, KindShare, 0, nil) // to crashed agent: lost
		}
		_ = eps[2].Send(ep.ID(), KindShare, 0, nil) // from crashed: no-op
	})
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Error("crashed agent's sends were delivered")
	}
	if msgs := eps[2].FinishRound(); msgs != nil {
		t.Error("crashed FinishRound returned messages")
	}
}

func TestCrashWhileOthersWaiting(t *testing.T) {
	nw, _ := New(2)
	eps := endpoints(t, nw)
	done := make(chan []Message, 1)
	go func() { done <- eps[0].FinishRound() }()
	// Give agent 0 time to block, then crash agent 1; the barrier must
	// release agent 0.
	time.Sleep(10 * time.Millisecond)
	eps[1].Crash()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier not released by crash")
	}
}

func TestCrashIdempotent(t *testing.T) {
	nw, _ := New(2)
	eps := endpoints(t, nw)
	eps[1].Crash()
	eps[1].Crash()
	got := runRound(t, eps[:1], nil)
	if len(got[0]) != 0 {
		t.Error("unexpected messages")
	}
}

func TestStatsByKindAndPhase(t *testing.T) {
	nw, _ := New(3)
	eps := endpoints(t, nw)
	runRound(t, eps, func(ep *Endpoint) {
		if ep.ID() == 0 {
			_ = ep.Send(1, KindShare, 0, payload{1})
			_ = ep.Broadcast(KindLambdaPsi, 0, payload{2})
			_ = ep.Send(2, KindPaymentClaim, 0, payload{3})
		}
	})
	st := nw.Stats()
	if got := st.ByKind(KindShare); got != 1 {
		t.Errorf("share count = %d, want 1", got)
	}
	if got := st.ByKind(KindLambdaPsi); got != 2 {
		t.Errorf("lambda-psi count = %d, want 2", got)
	}
	ph := st.ByPhase()
	if ph["II-bidding"] != 1 || ph["III-allocating"] != 2 || ph["IV-payments"] != 1 {
		t.Errorf("ByPhase = %v", ph)
	}
	if st.ByKind(Kind(99)) != 0 {
		t.Error("unknown kind nonzero")
	}
}

func TestStatsMerge(t *testing.T) {
	var ta, tb Tally
	ta.record(KindShare, payload{5})
	tb.record(KindShare, payload{7})
	tb.record(KindAbort, nil)
	a := ta.Stats()
	a.Add(&tb)
	if a.Messages() != 3 || a.Bytes() != 12 || a.ByKind(KindShare) != 2 {
		t.Errorf("merged stats: msgs=%d bytes=%d shares=%d", a.Messages(), a.Bytes(), a.ByKind(KindShare))
	}
}

func TestKindStringAndPhase(t *testing.T) {
	if KindShare.String() != "share" {
		t.Errorf("KindShare.String() = %q", KindShare.String())
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if Kind(99).Phase() != "unknown" {
		t.Errorf("unknown kind phase = %q", Kind(99).Phase())
	}
}

func TestManyAgentsManyRounds(t *testing.T) {
	const n, rounds = 8, 5
	nw, _ := New(n)
	eps := endpoints(t, nw)
	for r := 0; r < rounds; r++ {
		got := runRound(t, eps, func(ep *Endpoint) {
			_ = ep.Broadcast(KindShare, r, nil)
		})
		for i := range got {
			if len(got[i]) != n-1 {
				t.Fatalf("round %d agent %d: %d messages, want %d", r, i, len(got[i]), n-1)
			}
		}
	}
	if want := int64(rounds * n * (n - 1)); nw.Stats().Messages() != want {
		t.Errorf("total messages = %d, want %d", nw.Stats().Messages(), want)
	}
}

// TestRoundDeliver pins the one round rule every fabric applies: each
// row plays sends, crashes and round ends on a Round and checks every
// agent's last deliveries, the error count and the accounting.
func TestRoundDeliver(t *testing.T) {
	type op func(r *Round) error
	send := func(from, to int, k Kind, task int) op {
		return func(r *Round) error { return r.Send(from, to, k, task, payload{1}) }
	}
	bcast := func(from int, k Kind) op {
		return func(r *Round) error { r.Broadcast(from, k, 0, payload{1}); return nil }
	}
	crash := func(id int) op {
		return func(r *Round) error { r.Crash(id); return nil }
	}
	deliver := func(r *Round) error { r.Deliver(); return nil }
	// into2 is a 3-agent delay matrix whose links into agent 2 are slow.
	into2 := [][]time.Duration{
		{0, 10 * time.Millisecond, time.Second},
		{20 * time.Millisecond, 0, time.Second},
		{30 * time.Millisecond, 30 * time.Millisecond, 0},
	}
	tests := []struct {
		name    string
		n       int
		delays  [][]time.Duration
		ops     []op
		want    map[int][]string // agent -> last deliveries as from/kind/task
		errs    int
		msgs    int64
		rounds  int64
		virtual time.Duration
	}{
		{
			name: "scrambled sends arrive in (From, Kind, Task) order", n: 4,
			ops: []op{
				send(2, 3, KindLambdaPsi, 0), send(0, 3, KindShare, 1), send(1, 3, KindShare, 0),
				send(0, 3, KindCommitments, 0), send(0, 3, KindShare, 0), send(2, 3, KindShare, 0),
				deliver,
			},
			want: map[int][]string{3: {"0/share/0", "0/share/1", "0/commitments/0", "1/share/0", "2/share/0", "2/lambda-psi/0"}},
			msgs: 6, rounds: 1,
		},
		{
			name: "a send to self is a no-op", n: 2,
			ops:    []op{send(0, 0, KindShare, 0), deliver},
			rounds: 1,
		},
		{
			name: "an out-of-range recipient is an error", n: 2,
			ops:    []op{send(0, 2, KindShare, 0), send(1, -1, KindShare, 0), deliver},
			errs:   2,
			rounds: 1,
		},
		{
			name: "a broadcast counts as n-1 messages", n: 4,
			ops:  []op{bcast(1, KindCommitments), deliver},
			want: map[int][]string{0: {"1/commitments/0"}, 2: {"1/commitments/0"}, 3: {"1/commitments/0"}},
			msgs: 3, rounds: 1,
		},
		{
			name: "nothing is delivered to a crashed recipient", n: 3,
			ops:  []op{send(0, 2, KindShare, 0), crash(2), send(1, 2, KindShare, 0), deliver},
			msgs: 2, rounds: 1,
		},
		{
			name: "sends after a crash are dropped", n: 3,
			ops:    []op{crash(1), send(1, 0, KindShare, 0), bcast(1, KindAbort), deliver},
			rounds: 1,
		},
		{
			name: "sends made earlier in the round are still delivered", n: 3,
			ops:  []op{send(1, 0, KindShare, 0), crash(1), send(1, 2, KindShare, 0), deliver},
			want: map[int][]string{0: {"1/share/0"}},
			msgs: 1, rounds: 1,
		},
		{
			name: "virtual time counts only delivered messages", n: 3, delays: into2,
			ops: []op{
				bcast(0, KindShare), bcast(1, KindShare), crash(2), deliver,
				send(0, 1, KindShare, 1), deliver,
			},
			want: map[int][]string{1: {"0/share/1"}},
			msgs: 5, rounds: 2, virtual: 20*time.Millisecond + 10*time.Millisecond,
		},
		{
			name: "an empty round takes 0", n: 3, delays: into2,
			ops:    []op{deliver},
			rounds: 1,
		},
		{
			name: "an inbox survives the next round's sends", n: 2,
			ops: []op{
				send(0, 1, KindShare, 0), deliver,
				send(0, 1, KindShare, 1), send(0, 1, KindShare, 2), send(0, 1, KindShare, 3),
			},
			want: map[int][]string{1: {"0/share/0"}},
			msgs: 4, rounds: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRound(tc.n, tc.delays)
			errs := 0
			for _, op := range tc.ops {
				if op(&r) != nil {
					errs++
				}
			}
			if errs != tc.errs {
				t.Errorf("%d sends failed, want %d", errs, tc.errs)
			}
			for i := 0; i < tc.n; i++ {
				var got []string
				for _, m := range r.Inbox(i) {
					got = append(got, fmt.Sprintf("%d/%s/%d", m.From, m.Kind, m.Task))
				}
				if !slices.Equal(got, tc.want[i]) {
					t.Errorf("agent %d got %v, want %v", i, got, tc.want[i])
				}
			}
			st := r.Stats()
			if st.Messages() != tc.msgs || st.Rounds() != tc.rounds || st.VirtualTime() != tc.virtual {
				t.Errorf("messages/rounds/virtual = %d/%d/%v, want %d/%d/%v",
					st.Messages(), st.Rounds(), st.VirtualTime(), tc.msgs, tc.rounds, tc.virtual)
			}
		})
	}
}
