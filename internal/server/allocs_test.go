package server

import (
	"context"
	"fmt"
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
// and (ii) one terminal transition — ONE encoding of the full record,
// whose bytes are both the WAL entry and the replica payload, plus the
// append, the offer and the done event. A second encoding of the record
// (≈ 80 allocations at this shape) blows budget (ii).
func TestAllocBudgetJobLifecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	const runs = 100
	cfg := journalConfig(t.TempDir())
	cfg.Fsync = "never"
	cfg.SnapshotEvery = -1 // compaction is not a per-job cost
	cfg.QueueDepth = 4 * runs
	s, err := New(cfg) // never started: jobs stay queued, nothing runs beside the measurement
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	// A view naming only this member makes the replicator Ready — the
	// terminal transition encodes and offers — with no successor to push
	// to, so no HTTP client allocates beside the measurement.
	s.ApplyFleetView(replica.View{Epoch: 1, Self: "a", Replication: 2,
		Peers: []replica.Peer{{Name: "a", URL: "http://127.0.0.1:0", Weight: 1}}})

	next := 0
	spec := func() JobSpec {
		next++
		return JobSpec{ID: fmt.Sprintf("alloc-%d", next), Random: &RandomSpec{Agents: 4, Tasks: 1},
			W: []int{1, 2, 3}, Seed: 1, Record: true}
	}
	submit := testing.AllocsPerRun(runs, func() {
		if _, err := s.Submit(spec()); err != nil {
			t.Fatal(err)
		}
	})

	// One real run supplies the result and transcript every measured
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
	jobs := make([]*Job, 0, runs+1)
	for len(jobs) < cap(jobs) {
		job, err := s.Submit(spec())
		if err != nil {
			t.Fatal(err)
		}
		job.setRunning(time.Now())
		jobs = append(jobs, job)
	}
	k := 0
	finish := testing.AllocsPerRun(runs, func() {
		s.finishJob(jobs[k], StateDone, jr, res.Transcript, nil, time.Now())
		k++
	})
	if st := jobs[0].State(); st != StateDone || jobs[0].Transcript() == nil {
		t.Fatalf("measured transition left the job %s", st)
	}

	// Measured 28 and 93; a second encoding of the record reads ≈ 170.
	t.Logf("Submit: %.0f allocs/op; terminal transition: %.0f allocs/op", submit, finish)
	const submitBudget, finishBudget = 32, 105
	if submit > submitBudget {
		t.Errorf("Submit: %.0f allocs/op, budget %d", submit, submitBudget)
	}
	if finish > finishBudget {
		t.Errorf("terminal transition: %.0f allocs/op, budget %d (one record encoding, not two)", finish, finishBudget)
	}
}
