package dmw

import (
	"reflect"
	"testing"
	"time"

	"dmw/internal/transport"
)

// TestLockstepDeliver pins the lockstep fabric against transport.Network's
// semantics: the same sends, in a scrambled order, with one recipient and
// then one sender crashed, deliver the same messages in the same (From,
// Kind, Task) order, with the same counts and virtual time.
func TestLockstepDeliver(t *testing.T) {
	const n = 4
	delays := make([][]time.Duration, n)
	for i := range delays {
		delays[i] = make([]time.Duration, n)
		for j := range delays[i] {
			delays[i][j] = time.Duration(10*i+j) * time.Millisecond
			if j == 1 {
				delays[i][j] += time.Second // only lost messages take this long
			}
		}
	}
	type send struct {
		from, to int // to < 0 broadcasts
		kind     transport.Kind
	}
	// Senders out of index order, and kinds out of order within a sender,
	// as a verify sub-round produces them.
	round := []send{
		{2, -1, transport.KindLambdaPsi},
		{0, 1, transport.KindShare},
		{3, -1, transport.KindAbort},
		{0, -1, transport.KindCommitments},
		{2, 0, transport.KindShare},
		{1, 3, transport.KindShare},
	}
	play := func(s sender, m send) {
		if m.to < 0 {
			s.Broadcast(m.kind, 7, AbortPayload{Reason: "x"})
		} else {
			s.Send(m.to, m.kind, 7, AbortPayload{Reason: "x"})
		}
	}

	nw, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDelays(delays); err != nil {
		t.Fatal(err)
	}
	eps := make([]*transport.Endpoint, n)
	for i := range eps {
		eps[i], _ = nw.Endpoint(i)
	}
	ls := newLockstep(n, delays, false)

	var want, got [2][n][]transport.Message
	for r := 0; r < 2; r++ {
		// Round 0: agent 1 crashes after its send. Round 1: its sends
		// are lost and nothing reaches it, and agent 3 crashes after its
		// broadcast.
		crash := map[int]int{0: 1, 1: 3}[r]
		for _, m := range round {
			play(eps[m.from], m)
			play(&ls.ports[m.from], m)
			if m.from == crash {
				eps[crash].Crash()
				ls.ports[crash].Crash()
			}
		}
		done := make(chan struct{})
		for i := 0; i < n; i++ {
			go func(i int) {
				want[r][i] = eps[i].FinishRound()
				done <- struct{}{}
			}(i)
		}
		for i := 0; i < n; i++ {
			<-done
		}
		ls.deliver()
		for i := 0; i < n; i++ {
			if !ls.crashed[i] {
				got[r][i] = append([]transport.Message(nil), ls.inbox[i]...)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lockstep deliveries\n%v\nnetwork deliveries\n%v", got, want)
	}
	var st transport.Stats
	st.Add(&ls.tally)
	if st.Messages() != nw.Stats().Messages() || st.Bytes() != nw.Stats().Bytes() ||
		st.Rounds() != nw.Stats().Rounds() || st.VirtualTime() != nw.Stats().VirtualTime() {
		t.Errorf("lockstep msgs/bytes/rounds/virtual %d/%d/%d/%v, network %d/%d/%d/%v",
			st.Messages(), st.Bytes(), st.Rounds(), st.VirtualTime(),
			nw.Stats().Messages(), nw.Stats().Bytes(), nw.Stats().Rounds(), nw.Stats().VirtualTime())
	}
}
