package wire

import (
	"bytes"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/transport"
)

func roundTrip(t *testing.T, m transport.Message) transport.Message {
	t.Helper()
	b, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRoundTripAllPayloads(t *testing.T) {
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
	share := enc.ShareFor(big.NewInt(3))

	msgs := []transport.Message{
		{From: 1, To: 2, Kind: transport.KindShare, Task: 0, Payload: &dmw.SharePayload{Share: share}},
		{From: 0, To: 5, Kind: transport.KindCommitments, Task: 3, Payload: dmw.CommitmentsPayload{C: comms}},
		{From: 2, To: 1, Kind: transport.KindLambdaPsi, Task: 1, Payload: &dmw.LambdaPsiPayload{Lambda: big.NewInt(99), Psi: big.NewInt(77)}},
		{From: 3, To: 0, Kind: transport.KindDisclosure, Task: 2, Payload: &dmw.DisclosurePayload{F: []*big.Int{big.NewInt(1), nil, big.NewInt(3)}}},
		{From: 4, To: 2, Kind: transport.KindSecondPrice, Task: 0, Payload: &dmw.SecondPricePayload{Lambda: big.NewInt(5), Psi: big.NewInt(6)}},
		{From: 5, To: 1, Kind: transport.KindPaymentClaim, Task: -1, Payload: &dmw.PaymentClaimPayload{Payments: []int64{0, -3, 12345678901}}},
		{From: 1, To: 3, Kind: transport.KindAbort, Task: 0, Payload: dmw.AbortPayload{Reason: "missing share from agent 2"}},
		{From: 0, To: 1, Kind: transport.KindBid, Task: 0, Payload: nil},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", m, got)
		}
	}
}

// TestRoundTripPointerPayloads: the engine sends five payloads as
// pointers (see package dmw), and DecodeMessage returns that form. The
// value form of each, which the benchmark harness builds, encodes to the
// same bytes and decodes to the pointer form.
func TestRoundTripPointerPayloads(t *testing.T) {
	g := group.MustNew(group.MustPreset(group.PresetTest64))
	cfg := bidcode.Config{W: []int{1, 2, 3}, C: 1, N: 6}
	enc, err := bidcode.Encode(cfg, 2, g.Scalars(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ptr := range []any{
		&dmw.SharePayload{Share: enc.ShareFor(big.NewInt(3))},
		&dmw.LambdaPsiPayload{Lambda: big.NewInt(99), Psi: big.NewInt(77)},
		&dmw.DisclosurePayload{F: []*big.Int{big.NewInt(1), nil, big.NewInt(3)}},
		&dmw.SecondPricePayload{Lambda: big.NewInt(5), Psi: big.NewInt(6)},
		&dmw.PaymentClaimPayload{Payments: []int64{0, -3, 12345678901}},
	} {
		m := transport.Message{From: 4, To: 1, Kind: transport.KindShare, Task: 2, Payload: ptr}
		want, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		byValue := m
		byValue.Payload = reflect.ValueOf(ptr).Elem().Interface()
		b, err := EncodeMessage(byValue)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%T encodes to %x, its pointer form to %x", byValue.Payload, b, want)
		}
		if got := roundTrip(t, byValue); !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %T:\n  in  %+v\n  out %+v", byValue.Payload, byValue, got)
		}
	}
	if _, err := EncodeMessage(transport.Message{Payload: &dmw.LambdaPsiPayload{Lambda: big.NewInt(-1), Psi: big.NewInt(1)}}); err == nil {
		t.Error("negative value encoded from a pointer payload")
	}
}

func TestRoundTripEmptyVectors(t *testing.T) {
	m := transport.Message{Kind: transport.KindDisclosure, Payload: dmw.DisclosurePayload{F: []*big.Int{}}}
	got := roundTrip(t, m)
	p := got.Payload.(*dmw.DisclosurePayload)
	if len(p.F) != 0 {
		t.Errorf("empty vector round trip: %v", p.F)
	}
	m = transport.Message{Kind: transport.KindPaymentClaim, Payload: dmw.PaymentClaimPayload{Payments: []int64{}}}
	got = roundTrip(t, m)
	if len(got.Payload.(*dmw.PaymentClaimPayload).Payments) != 0 {
		t.Error("empty claims round trip failed")
	}
}

func TestEncodeRejectsBadPayloads(t *testing.T) {
	tests := []struct {
		name string
		m    transport.Message
	}{
		{"unknown payload", transport.Message{Payload: 42}},
		{"negative bigint", transport.Message{Payload: dmw.LambdaPsiPayload{Lambda: big.NewInt(-1), Psi: big.NewInt(1)}}},
		{"nil commitments", transport.Message{Payload: dmw.CommitmentsPayload{}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EncodeMessage(tt.m); err == nil {
				t.Error("invalid message encoded")
			}
		})
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	good, err := EncodeMessage(transport.Message{
		From: 1, To: 2, Kind: transport.KindLambdaPsi, Task: 0,
		Payload: dmw.LambdaPsiPayload{Lambda: big.NewInt(12345), Psi: big.NewInt(678)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeMessage(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage rejected.
	if _, err := DecodeMessage(append(append([]byte{}, good...), 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown payload tag rejected.
	bad := append([]byte{}, good...)
	bad[13] = 0xEE // payload type byte (4+4+1+4 header)
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("unknown payload tag accepted")
	}
}

// Property: decode never panics on random input.
func TestDecodeRobustProperty(t *testing.T) {
	check := func(b []byte) bool {
		_, _ = DecodeMessage(b) // must not panic
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: random LambdaPsi values always round trip exactly.
func TestRoundTripProperty(t *testing.T) {
	check := func(a, b uint64, from, to uint8, task int16) bool {
		m := transport.Message{
			From: int(from), To: int(to), Kind: transport.KindLambdaPsi, Task: int(task),
			Payload: &dmw.LambdaPsiPayload{
				Lambda: new(big.Int).SetUint64(a),
				Psi:    new(big.Int).SetUint64(b),
			},
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestSocketFrame: a socket frame round-trips, and both ends refuse a
// frame over the stream's limit.
func TestSocketFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSocketFrame(&buf, 7, []byte("body"), 5); err != nil {
		t.Fatal(err)
	}
	if err := WriteSocketFrame(&buf, 7, []byte("body!"), 5); err == nil {
		t.Error("writer accepted a frame over the limit")
	}
	raw := bytes.Clone(buf.Bytes())
	if ft, body, err := ReadSocketFrame(&buf, 5); err != nil || ft != 7 || string(body) != "body" {
		t.Errorf("read back type %d body %q err %v", ft, body, err)
	}
	if _, _, err := ReadSocketFrame(bytes.NewReader(raw), 4); err == nil {
		t.Error("reader accepted a frame over the limit")
	}
}
