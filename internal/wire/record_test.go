package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/big"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/payment"
)

// recordedRun is a recorded transcript at the fleet-submit shape
// (Test64, n = 4, m = 1, W = {1,2,3}).
func recordedRun(t testing.TB) *dmw.Transcript {
	t.Helper()
	bids := [][]int{{2}, {1}, {3}, {2}}
	res, err := dmw.Run(dmw.RunConfig{Params: group.MustPreset(group.PresetTest64), TrueBids: bids, Seed: 1,
		Bid: bidcode.Config{W: []int{1, 2, 3}, N: len(bids)}, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Transcript
}

// oddTranscript holds every shape a transcript can take that a clean run
// does not: a withheld commitment, a withheld Lambda, an empty and a nil
// disclosure map, empty and nil vectors, an aborted outcome.
func oddTranscript() *dmw.Transcript {
	v := func(xs ...int64) []*big.Int {
		out := make([]*big.Int, len(xs))
		for i, x := range xs {
			if x >= 0 {
				out[i] = big.NewInt(x)
			}
		}
		return out
	}
	return &dmw.Transcript{
		Bid: bidcode.Config{W: []int{1, 2}, C: 1, N: 3},
		Auctions: []*dmw.AuctionTranscript{
			{Task: 0, Commitments: []*commit.Commitments{nil, {O: v(5), Q: v(6), R: v(7)}, nil},
				Lambda: v(9, -1, 1<<40), Psi: v(3, 4, 5), Disclosures: map[int][]*big.Int{},
				BarLambda: []*big.Int{}, Claimed: dmw.AuctionOutcome{Aborted: true, AbortReason: "withheld", Winner: -1}},
			{Task: 1, Disclosures: map[int][]*big.Int{2: v(8, -1), 0: nil, 1: {}},
				Claimed: dmw.AuctionOutcome{Task: 1, Winner: 2, FirstPrice: 1, SecondPrice: 2}},
		},
		Claims: []payment.Claim{{From: 0, Payments: []int64{-3, 0}}, {From: 1}},
	}
}

func sampleRecords(t testing.TB) []JobRecord {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	spec := Job{ID: "rec-1", Random: true, RandomAgents: 4, RandomTasks: 1, W: []int{1, 2, 3}, Seed: 1, Record: true,
		RequestID: "req-1", Tenant: "t1"}
	return []JobRecord{
		{ID: "rec-1", State: "queued", Spec: spec, Bids: [][]int{{2}, {1}, {3}, {2}}, Submitted: at},
		{ID: "rec-1", State: "done", Spec: spec, Bids: [][]int{{2}, {1}, {3}, {2}}, Submitted: at,
			Started: at.Add(time.Millisecond), Finished: at.Add(2 * time.Millisecond), Expires: at.Add(time.Hour),
			Result: &Result{Schedule: []int{1}, Payments: []int64{0, 2, 0, 0}, FirstPrice: []int64{1}, SecondPrice: []int64{2},
				Utilities: []int64{0, 1, 0, 0}, MatchesCentralized: true, Messages: 44, WireBytes: 1 << 12, Rounds: 9,
				GroupExp: 1, GroupMul: 2, GroupMultiExps: 3, GroupMultiExpTerms: 4},
			Transcript: recordedRun(t)},
		{ID: "odd", State: "failed", Error: "boom", Spec: Job{Bids: [][]int{{1}, {}}}, Bids: [][]int{{1, 2}, {}},
			Result: &Result{Schedule: []int{}}, Transcript: oddTranscript()},
		{}, // the zero record: nil everywhere, zero times
	}
}

// TestJobRecordRoundTrip: a job record decodes to itself, nil as nil and
// empty as empty, zero times as zero times, withheld values as nil.
func TestJobRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords(t) {
		b, err := EncodeRecord(&rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d changed across the frame:\n in  %+v\n out %+v", i, rec, got)
		}
		if !got.Started.IsZero() && rec.Started.IsZero() || got.Expires.IsZero() != rec.Expires.IsZero() {
			t.Fatalf("record %d: zero times did not round-trip", i)
		}
		again, err := EncodeRecord(&got)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("record %d: the decoded record re-encodes differently (%v)", i, err)
		}
		if _, err := DecodeRecord(b[:len(b)-1]); err == nil {
			t.Fatalf("record %d: a truncated frame decoded", i)
		}
		if _, err := DecodeJobFrame(b); !errors.Is(err, ErrFrame) {
			t.Fatalf("record %d: a record frame decoded as a job frame (%v)", i, err)
		}
	}
}

// TestJobRecordRefusesWhatItCannotHold: a ragged commitment and a nil
// auction are refused at encode, not written lossily.
func TestJobRecordRefusesWhatItCannotHold(t *testing.T) {
	ragged := oddTranscript()
	ragged.Auctions[0].Commitments[1].R = nil
	holey := oddTranscript()
	holey.Auctions[1] = nil
	for name, rec := range map[string]JobRecord{
		"ragged commitment": {Transcript: ragged},
		"nil auction":       {Transcript: holey},
	} {
		if _, err := EncodeRecord(&rec); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func encodeTranscript(tr *dmw.Transcript) ([]byte, error) {
	size := appender{sizing: true}
	if size.transcript(tr, 0, 0); size.err != nil {
		return nil, size.err
	}
	a := appender{b: make([]byte, 0, size.n)}
	a.transcript(tr, size.vals, size.words)
	return a.b, nil
}

func decodeTranscript(b []byte) (*dmw.Transcript, error) {
	r := &reader{b: b}
	tr := r.transcript()
	if r.err || r.remaining() != 0 {
		return nil, ErrTruncated
	}
	return tr, nil
}

// TestTranscriptRefusesHostileCounts: a short input claiming a huge
// count is refused before the slab or vector that count would size is
// allocated.
func TestTranscriptRefusesHostileCounts(t *testing.T) {
	be := binary.BigEndian
	u16 := func(v uint16) []byte { return be.AppendUint16(nil, v) }
	head := func(vals, words uint32) []byte { return be.AppendUint32(be.AppendUint32(nil, vals), words) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	zero8 := make([]byte, 8)
	nilVec := u16(nilLen)
	auction := func(commitments []byte) []byte {
		return cat(head(2, 0), nilVec, zero8, zero8, u16(1), zero8, commitments)
	}
	for name, in := range map[string][]byte{
		"2^32-1 integer slots":  cat(head(1<<32-1, 0), make([]byte, 8)),
		"2^32-1 words":          cat(head(2, 1<<32-1), make([]byte, 8)),
		"65,534 bid values":     cat(head(0, 0), u16(65534), zero8),
		"65,534 auctions":       cat(head(0, 0), nilVec, zero8, zero8, u16(65534), zero8),
		"65,534 commitments":    auction(u16(65534)),
		"sigma 65,534":          auction(cat(u16(1), u16(65534), zero8)),
		"sigma past the slab":   auction(cat(u16(1), u16(1), zero8)),
		"65,534 claims":         cat(head(0, 0), nilVec, zero8, zero8, u16(0), u16(65534), zero8),
		"65,534 claim payments": cat(head(0, 0), nilVec, zero8, zero8, u16(0), u16(1), zero8, u16(65534), zero8),
	} {
		if _, err := decodeTranscript(in); err == nil {
			t.Errorf("%s: decoded", name)
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _ = decodeTranscript(in)
		runtime.ReadMemStats(&m1)
		if n := m1.TotalAlloc - m0.TotalAlloc; n > 1024 {
			t.Errorf("%s: %d-byte input allocated %d bytes before it was refused", name, len(in), n)
		}
	}
}

// FuzzTranscriptRoundTrip: a transcript is input from outside the
// program (a WAL entry, a replica payload). Whatever the bytes, the
// transcript decoder refuses them or yields a transcript that re-encodes
// and decodes back to the same transcript.
func FuzzTranscriptRoundTrip(f *testing.F) {
	for _, tr := range []*dmw.Transcript{recordedRun(f), oddTranscript(), {}} {
		b, err := encodeTranscript(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeTranscript(data)
		if err != nil {
			return
		}
		enc, err := encodeTranscript(tr)
		if err != nil {
			t.Fatalf("decoded transcript does not re-encode: %v", err)
		}
		again, err := decodeTranscript(enc)
		if err != nil {
			t.Fatalf("re-encoded transcript does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("transcript changed across an encode/decode round trip:\n%+v\n%+v", tr, again)
		}
	})
}
