package wire

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/transport"
)

// commitmentsMessage builds the largest message the protocol ships: a
// full commitments payload (3*sigma group elements).
func commitmentsMessage(t testing.TB) (transport.Message, int) {
	t.Helper()
	g := group.MustNew(group.MustPreset(group.PresetTest64))
	cfg := bidcode.Config{W: []int{1, 2, 3}, C: 1, N: 6}
	enc, err := bidcode.Encode(cfg, 2, g.Scalars(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	comms, err := commit.New(g, enc, cfg.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	m := transport.Message{From: 1, To: 2, Kind: transport.KindCommitments, Payload: dmw.CommitmentsPayload{C: comms}}
	return m, cfg.Sigma()
}

// TestAllocBudgetEncode pins the single-allocation encode path: the
// sizing pass plus FillBytes-into-tail leaves exactly one buffer
// allocation per message, any payload shape.
func TestAllocBudgetEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	cm, _ := commitmentsMessage(t)
	msgs := []transport.Message{
		cm,
		{From: 1, To: 2, Kind: transport.KindLambdaPsi, Payload: dmw.LambdaPsiPayload{Lambda: big.NewInt(99), Psi: big.NewInt(77)}},
		{From: 1, To: 2, Kind: transport.KindLambdaPsi, Payload: &dmw.LambdaPsiPayload{Lambda: big.NewInt(99), Psi: big.NewInt(77)}},
		{From: 0, To: 1, Kind: transport.KindBid, Payload: nil},
	}
	for _, m := range msgs {
		m := m
		avg := testing.AllocsPerRun(50, func() {
			if _, err := EncodeMessage(m); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Errorf("EncodeMessage(%T): %.1f allocs/op, want 1 (the output buffer)", m.Payload, avg)
		}
	}
}

// TestAllocBudgetDecode bounds the decode path: a payload's integers
// come from one header, one pointer and one word slab (decoded values
// still do not alias the input), so a commitments payload costs a fixed
// handful whatever sigma — measured 4; a words array per big.Int, as
// before the slabs, cost 3*sigma + 3.
func TestAllocBudgetDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	m, sigma := commitmentsMessage(t)
	b, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(6)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := DecodeMessage(b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeMessage(commitments, sigma=%d): %.1f allocs/op (budget %.0f)", sigma, avg, budget)
	if avg > budget {
		t.Errorf("DecodeMessage allocates %.1f/op, budget %.0f", avg, budget)
	}
}

// TestAllocBudgetJobFrameEncode pins the frame fast path: the sizing
// pass plus appender fill leaves exactly one buffer allocation per
// frame, whatever the batch shape.
func TestAllocBudgetJobFrameEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{ID: "job", Bids: [][]int{{1, 2, 3, 4}, {4, 3, 2, 1}}, W: []int{1, 2, 3, 4}, Tenant: "t", RequestID: "r"}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := EncodeJobFrame(jobs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("EncodeJobFrame: %.1f allocs/op, want 1 (the output buffer)", avg)
	}
}

// TestAllocBudgetResultFrame pins the relay-path codec: re-encoding a
// result frame into a retained (pooled) buffer allocates nothing, and
// decoding allocates only the item slice plus one string copy per
// ErrMsg — bodies alias the input.
func TestAllocBudgetResultFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	items := make([]ResultItem, 32)
	for i := range items {
		items[i] = ResultItem{Status: 202, Body: []byte(`{"id":"a","state":"queued","result":{"assignment":[0,1,2,3]}}`)}
	}
	buf := AppendResultFrame(nil, items)
	avg := testing.AllocsPerRun(50, func() {
		buf = AppendResultFrame(buf[:0], items)
	})
	if avg > 0 {
		t.Errorf("AppendResultFrame into retained buffer: %.1f allocs/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := DecodeResultFrame(buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("DecodeResultFrame: %.1f allocs/op, want 1 (the item slice)", avg)
	}
}
