package server

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/replica"
)

// TestAllocBudgetJobLifecycle pins what the server itself allocates per
// job around the protocol run, at the benchmark's fleet-submit shape
// (Test64, n=4, m=1, record:true) on a journal-backed server with a
// fleet view installed: (i) one Submit — validation, tenant gates, one
// record encoding, one WAL append, the queue push, the admitted event —
// (ii) applying the running record, which allocates nothing, and (iii)
// one terminal transition — ONE encoding of the full record, whose
// bytes are both the WAL entry and the replica payload, plus the
// append, the offer and the done event. The record is a wire frame
// encoded into one exact-size buffer, so a second encoding costs a
// single allocation and would hide inside budget (iii); it cannot hide
// in the bytes, where it adds a whole frame (≈ 1.4 KB at this shape)
// to the ≈ 2 KB the rest of the transition allocates.
//
// The budgets are per job whatever the server retains: the retained
// case keeps 5,000 terminal jobs at the default 15 min TTL and measures
// over 2,050 appends, so any per-append work that grows with the
// retained set (re-encoding it to compact the WAL costs ≥ 1 allocation
// and a frame's bytes per retained job) lands inside the measurement.
func TestAllocBudgetJobLifecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for _, tc := range []struct {
		name           string
		retained, runs int
	}{
		{"fresh", 0, 100},
		{"5000-retained", 5000, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := journalConfig(t.TempDir())
			cfg.Fsync = "never"
			cfg.ResultTTL = 0 // the 15 min default
			cfg.QueueDepth = tc.retained + 2*tc.runs + 4
			s, err := New(cfg) // never started: jobs stay queued, nothing runs beside the measurement
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
			// A view naming only this member makes the replicator Ready — the
			// terminal transition encodes and offers — with no successor to
			// push to, so no HTTP client allocates beside the measurement.
			s.ApplyFleetView(replica.View{Epoch: 1, Self: "a", Replication: 2,
				Peers: []replica.Peer{{Name: "a", URL: "http://127.0.0.1:0", Weight: 1}}})

			next := 0
			spec := func() JobSpec {
				next++
				return JobSpec{ID: fmt.Sprintf("alloc-%d", next), Random: &RandomSpec{Agents: 4, Tasks: 1},
					W: []int{1, 2, 3}, Seed: 1, Record: true}
			}
			// One real run supplies the result and transcript every
			// transition records.
			probe := spec()
			bids, err := probe.materialize(cfg.Limits)
			if err != nil {
				t.Fatal(err)
			}
			res, err := protocol.Run(protocol.RunConfig{Params: s.params, Group: s.grp, TrueBids: bids, Seed: probe.Seed,
				Bid: bidcode.Config{W: probe.W, C: probe.C, N: len(bids)}, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			jr := buildResult(res, true)
			// start applies the running record, as runJob does.
			start := func(job *Job) {
				r := job.record()
				r.State, r.Started = StateRunning, time.Now()
				job.apply(&r)
			}
			submitN := func(n int) []*Job {
				jobs := make([]*Job, 0, n)
				for len(jobs) < n {
					job, err := s.Submit(spec())
					if err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, job)
				}
				return jobs
			}
			for _, job := range submitN(tc.retained) {
				start(job)
				s.finishJob(job, StateDone, jr, res.Transcript, nil, time.Now())
			}

			submit := testing.AllocsPerRun(tc.runs, func() {
				if _, err := s.Submit(spec()); err != nil {
					t.Fatal(err)
				}
			})
			jobs := submitN(tc.runs + 1)
			k := 0
			running := testing.AllocsPerRun(tc.runs, func() {
				start(jobs[k])
				k++
			})
			if st := jobs[tc.runs].State(); st != StateRunning {
				t.Fatalf("the running record left the job %s", st)
			}
			k = 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			finish := testing.AllocsPerRun(tc.runs, func() {
				s.finishJob(jobs[k], StateDone, jr, res.Transcript, nil, time.Now())
				k++
			})
			runtime.ReadMemStats(&m1)
			finishBytes := int((m1.TotalAlloc - m0.TotalAlloc) / uint64(k)) // AllocsPerRun runs once more than it counts
			frame, err := encodeRecord(jobs[0].record())
			if err != nil {
				t.Fatal(err)
			}
			if st := jobs[0].State(); st != StateDone || jobs[0].Transcript() == nil {
				t.Fatalf("measured transition left the job %s", st)
			}
			if live := s.store.Len(); live < tc.retained {
				t.Fatalf("%d jobs retained, want >= %d", live, tc.retained)
			}

			// Measured 23-24 and 11-12 allocs, and 3.3-3.4 KB of which the
			// frame is 1,369 bytes (JSON records: 28 and 93 allocs, the JSON
			// record 2,398 bytes).
			t.Logf("Submit: %.0f allocs/op; start: %.0f allocs/op; terminal transition: %.0f allocs/op, %d bytes/op (frame %d bytes)",
				submit, running, finish, finishBytes, len(frame))
			const submitBudget, finishBudget, otherBytes = 28, 14, 2400
			if submit > submitBudget {
				t.Errorf("Submit: %.0f allocs/op, budget %d", submit, submitBudget)
			}
			if running != 0 {
				t.Errorf("start: %.0f allocs/op, want 0", running)
			}
			if finish > finishBudget {
				t.Errorf("terminal transition: %.0f allocs/op, budget %d", finish, finishBudget)
			}
			if finishBytes > len(frame)+otherBytes {
				t.Errorf("terminal transition: %d bytes/op, budget one %d-byte frame + %d (one record encoding, not two)",
					finishBytes, len(frame), otherBytes)
			}
		})
	}
}

// TestAllocBudgetRecordCodec pins the job record's codec at the
// fleet-submit shape (Test64, n=4, m=1, record:true): encoding a
// terminal record is the one exact-size frame buffer, and a ring
// successor's AcceptReplica, which decodes the whole record before it
// keeps the copy, allocates a fixed handful per record — the
// transcript's 72 integers come from three slabs, not one or more
// allocations each (the JSON record cost 83 to encode and 338 to
// decode).
func TestAllocBudgetRecordCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	s, rec := fleetSubmitRecord(t)
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	pushed := []replica.Record{{ID: rec.ID, Origin: "peer", Epoch: 1, Payload: payload}}

	encode := testing.AllocsPerRun(200, func() {
		if _, err := encodeRecord(rec); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(200, func() {
		if _, err := decodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	})
	accept := testing.AllocsPerRun(200, func() {
		if s.AcceptReplica(pushed) != 1 {
			t.Fatal("the terminal record was not accepted")
		}
	})
	// Measured 1, 35 and 35.
	t.Logf("%d-byte record: encode %.0f allocs/op; decodeRecord %.0f; AcceptReplica %.0f", len(payload), encode, decode, accept)
	const encodeBudget, acceptBudget = 2, 40
	if encode > encodeBudget {
		t.Errorf("encodeRecord: %.0f allocs/op, budget %d", encode, encodeBudget)
	}
	if accept > acceptBudget {
		t.Errorf("AcceptReplica (one decodeRecord): %.0f allocs/op, budget %d", accept, acceptBudget)
	}
}
