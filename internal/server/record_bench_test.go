package server

import (
	"context"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/replica"
)

// fleetSubmitRecord is a server that holds no jobs, and a terminal record
// at the benchmark's fleet-submit shape (Test64, n=4, m=1, record:true):
// result, transcript, request ID and tenant.
func fleetSubmitRecord(t testing.TB) (*Server, jobRecord) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	spec := JobSpec{ID: "codec-1", Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: 1, Record: true,
		RequestID: "req-1", Tenant: "t1"}
	bids, err := spec.materialize(s.cfg.Limits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := protocol.Run(protocol.RunConfig{Params: s.params, Group: s.grp, TrueBids: bids, Seed: spec.Seed,
		Bid: bidcode.Config{W: spec.W, C: spec.C, N: len(bids)}, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	rec, err := admissionRecord(spec, bids, now)
	if err != nil {
		t.Fatal(err)
	}
	rec.Started = now
	rec.end(StateDone, buildResult(res, true), res.Transcript, "", now, time.Hour)
	return s, rec
}

// BenchmarkRecordCodec times the job record's codec at the fleet-submit
// shape: the one encoding a terminal transition makes, decodeRecord, and
// a ring successor's AcceptReplica of the pushed copy.
func BenchmarkRecordCodec(b *testing.B) {
	s, rec := fleetSubmitRecord(b)
	payload, err := encodeRecord(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeRecord(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("accept", func(b *testing.B) {
		pushed := []replica.Record{{ID: rec.ID, Origin: "peer", Epoch: 1, Payload: payload}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.AcceptReplica(pushed) != 1 {
				b.Fatal("the terminal record was not accepted")
			}
		}
	})
}
