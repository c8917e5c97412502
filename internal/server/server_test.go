package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
)

// testConfig returns a small fast server config on the Test64 preset.
func testConfig() Config {
	return Config{
		Preset:     group.PresetTest64,
		QueueDepth: 128,
		Workers:    4,
		ResultTTL:  time.Minute,
		Limits:     Limits{MaxAgents: 16, MaxTasks: 8},
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// directRun executes the same job via the protocol directly (fresh
// parameters, no shared group), the reference the server must match.
func directRun(t *testing.T, spec JobSpec, bids [][]int) *protocol.Result {
	t.Helper()
	cfg := protocol.RunConfig{
		Params:   group.MustPreset(group.PresetTest64),
		Bid:      bidcode.Config{W: spec.W, C: spec.C, N: len(bids)},
		TrueBids: bids,
		Seed:     spec.Seed,
	}
	res, err := protocol.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadConcurrentJobsMatchDirectRun is the satellite load test: 64
// jobs submitted concurrently through the queue must all complete with
// exactly the schedule and payments of a direct dmw.Run on the same
// seed. Run it under -race: it exercises the shared group tables, the
// queue handshake, and the store from many goroutines at once.
func TestLoadConcurrentJobsMatchDirectRun(t *testing.T) {
	const jobs = 64
	s := startServer(t, testConfig())

	specs := make([]JobSpec, jobs)
	for k := range specs {
		specs[k] = JobSpec{
			Random: &RandomSpec{Agents: 5, Tasks: 2},
			W:      []int{1, 2, 3},
			C:      0,
			Seed:   int64(1000 + k),
		}
	}

	var wg sync.WaitGroup
	handles := make([]*Job, jobs)
	for k := range specs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				job, err := s.Submit(specs[k])
				if err == nil {
					handles[k] = job
					return
				}
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond) // backpressure: retry
					continue
				}
				t.Errorf("job %d: %v", k, err)
				return
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for k, job := range handles {
		if !job.WaitDone(60 * time.Second) {
			t.Fatalf("job %d (%s) did not finish", k, job.ID)
		}
		if st := job.State(); st != StateDone {
			t.Fatalf("job %d: state %s, want done (%s)", k, st, job.View().Error)
		}
		res := job.Result()
		bids := randomBids(5, 2, specs[k].W, specs[k].Seed)
		ref := directRun(t, specs[k], bids)
		if !reflect.DeepEqual(res.Schedule, ref.Outcome.Schedule.Agent) {
			t.Errorf("job %d: schedule %v, direct run %v", k, res.Schedule, ref.Outcome.Schedule.Agent)
		}
		if !reflect.DeepEqual(res.Payments, ref.Outcome.Payments) {
			t.Errorf("job %d: payments %v, direct run %v", k, res.Payments, ref.Outcome.Payments)
		}
		if !res.MatchesCentralized {
			t.Errorf("job %d: does not match centralized MinWork", k)
		}
	}

	// Metrics must account for every submission.
	var sb strings.Builder
	s.WriteMetrics(&sb)
	text := sb.String()
	if !strings.Contains(text, fmt.Sprintf("dmwd_jobs_completed_total %d", jobs)) {
		t.Errorf("metrics missing completed=%d:\n%s", jobs, text)
	}
	if !strings.Contains(text, fmt.Sprintf("dmwd_auctions_run_total %d", jobs*2)) {
		t.Errorf("metrics missing auctions=%d:\n%s", jobs*2, text)
	}
}

// TestCountOpsMultiExpAccounting pins the Theorem 12 accounting surface:
// a count_ops job reports multi-exponentiation calls and absorbed terms,
// and the process metrics accumulate exactly the job's totals.
func TestCountOpsMultiExpAccounting(t *testing.T) {
	s := startServer(t, testConfig())
	job, err := s.Submit(JobSpec{
		Bids:     [][]int{{2}, {1}, {3}, {2}},
		W:        []int{1, 2, 3},
		Seed:     11,
		CountOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	res := job.Result()
	if res == nil || job.State() != StateDone {
		t.Fatalf("state %s, error %q", job.State(), job.View().Error)
	}
	if res.GroupMultiExps == 0 {
		t.Fatal("count_ops job reported zero multi-exponentiations; the batched hot path should use MultiExp")
	}
	// Every call absorbs at least one term; the share-verification and
	// resolution batches absorb many, so terms must strictly dominate.
	if res.GroupMultiExpTerms <= res.GroupMultiExps {
		t.Errorf("multi-exp terms %d not greater than calls %d: batching is not happening",
			res.GroupMultiExpTerms, res.GroupMultiExps)
	}

	var sb strings.Builder
	s.WriteMetrics(&sb)
	text := sb.String()
	if want := fmt.Sprintf("dmwd_group_multiexps_total %d", res.GroupMultiExps); !strings.Contains(text, want) {
		t.Errorf("metrics missing %q:\n%s", want, text)
	}
	if want := fmt.Sprintf("dmwd_group_multiexp_terms_total %d", res.GroupMultiExpTerms); !strings.Contains(text, want) {
		t.Errorf("metrics missing %q:\n%s", want, text)
	}
}

// TestVickreyOutcome pins the basic mechanism property end to end:
// winner = lowest bid, payment = second-lowest.
func TestVickreyOutcome(t *testing.T) {
	s := startServer(t, testConfig())
	job, err := s.Submit(JobSpec{
		Bids: [][]int{{1}, {3}, {2}, {3}},
		W:    []int{1, 2, 3},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	res := job.Result()
	if res == nil || job.State() != StateDone {
		t.Fatalf("state %s, error %q", job.State(), job.View().Error)
	}
	if res.Schedule[0] != 0 {
		t.Errorf("winner = agent %d, want 0 (lowest bid)", res.Schedule[0])
	}
	if res.FirstPrice[0] != 1 || res.SecondPrice[0] != 2 {
		t.Errorf("prices (%d, %d), want (1, 2)", res.FirstPrice[0], res.SecondPrice[0])
	}
	if res.Payments[0] != 2 {
		t.Errorf("payment %d, want 2 (second price)", res.Payments[0])
	}
}

// TestQueueFullBackpressure fills a tiny queue with a stopped worker
// pool and checks rejection behavior.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: jobs stay queued, so the third submission must bounce.
	spec := JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 1}
	for k := 0; k < 2; k++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submission %d: %v", k, err)
		}
	}
	job, err := s.Submit(spec)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if job == nil || job.State() != StateRejected {
		t.Fatalf("rejected job should still be queryable, got %+v", job)
	}
	if _, ok := s.Get(job.ID); !ok {
		t.Error("rejected job not in store")
	}

	// Draining the never-started server must also resolve the queued jobs
	// once Start runs them: start now and shut down.
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsAcceptedJobs floods the queue, shuts down
// immediately, and checks that every accepted job still completes and
// post-drain submissions are rejected with ErrDraining.
func TestShutdownDrainsAcceptedJobs(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	var accepted []*Job
	for k := 0; k < 16; k++ {
		job, err := s.Submit(JobSpec{
			Random: &RandomSpec{Agents: 4, Tasks: 2},
			W:      []int{1, 2, 3},
			Seed:   int64(k),
		})
		if err != nil {
			t.Fatalf("submission %d: %v", k, err)
		}
		accepted = append(accepted, job)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for k, job := range accepted {
		if st := job.State(); st != StateDone {
			t.Errorf("accepted job %d dropped by drain: state %s", k, st)
		}
	}
	if !s.Draining() {
		t.Error("server should report draining")
	}
	if _, err := s.Submit(JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2}, Seed: 1}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submission: want ErrDraining, got %v", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestInvalidSpecs checks admission-time validation paths.
func TestInvalidSpecs(t *testing.T) {
	s := startServer(t, testConfig())
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"both bids and random", JobSpec{Bids: [][]int{{1}, {1}}, Random: &RandomSpec{Agents: 2, Tasks: 1}}},
		{"bid outside W", JobSpec{Bids: [][]int{{9}, {1}, {1}, {1}}, W: []int{1, 2, 3}}},
		{"ragged", JobSpec{Bids: [][]int{{1, 2}, {1}, {1, 1}, {2, 2}}, W: []int{1, 2, 3}}},
		{"too many agents", JobSpec{Random: &RandomSpec{Agents: 99, Tasks: 1}}},
		{"too many tasks", JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 99}}},
		{"nonpositive W", JobSpec{Bids: [][]int{{1}, {1}}, W: []int{0, 1}}},
		{"w_k too large for n", JobSpec{Bids: [][]int{{1}, {2}}, W: []int{1, 2, 3, 4}}},
		{"c >= n", JobSpec{Bids: [][]int{{1}, {1}, {1}, {1}}, W: []int{1, 2}, C: 5}},
		{"negative parallelism", JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2}, Parallelism: -1}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: want ErrInvalidSpec, got %v", tc.name, err)
		}
	}
}

// TestNormalizeW checks bid-set normalization (sorting + dedupe).
func TestNormalizeW(t *testing.T) {
	s := startServer(t, testConfig())
	job, err := s.Submit(JobSpec{
		Bids: [][]int{{1}, {3}, {2}, {1}},
		W:    []int{3, 1, 2, 2, 1},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Spec.W; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("normalized W = %v, want [1 2 3]", got)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	if job.State() != StateDone {
		t.Fatalf("state %s: %s", job.State(), job.View().Error)
	}
}

// TestResultTTLEviction checks terminal jobs disappear after the TTL.
func TestResultTTLEviction(t *testing.T) {
	cfg := testConfig()
	cfg.ResultTTL = 10 * time.Millisecond
	s := startServer(t, cfg)
	job, err := s.Submit(JobSpec{Bids: [][]int{{1}, {2}, {2}}, W: []int{1, 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	if _, ok := s.Get(job.ID); !ok {
		t.Fatal("job should be queryable right after completion")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Get(job.ID); !ok {
			break // evicted (lookup-side or janitor)
		}
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRandomSpecMatchesExplicitBids checks a random-workload job equals
// an explicit-bid job with the matrix dmw.RandomBids would generate.
func TestRandomSpecMatchesExplicitBids(t *testing.T) {
	s := startServer(t, testConfig())
	w := []int{1, 2, 3}
	seed := int64(99)
	bids := randomBids(5, 2, w, seed)

	j1, err := s.Submit(JobSpec{Random: &RandomSpec{Agents: 5, Tasks: 2}, W: w, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobSpec{Bids: bids, W: w, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j1, j2} {
		if !j.WaitDone(30 * time.Second) {
			t.Fatal("job did not finish")
		}
		if j.State() != StateDone {
			t.Fatalf("state %s: %s", j.State(), j.View().Error)
		}
	}
	r1, r2 := j1.Result(), j2.Result()
	if !reflect.DeepEqual(r1.Schedule, r2.Schedule) || !reflect.DeepEqual(r1.Payments, r2.Payments) {
		t.Errorf("random spec and explicit bids diverged: %+v vs %+v", r1, r2)
	}
}

// TestPerJobParallelismClamp checks the spec can only lower, never
// raise, the server's auction-parallelism cap.
func TestPerJobParallelismClamp(t *testing.T) {
	cfg := testConfig()
	cfg.AuctionParallelism = 2
	s := startServer(t, cfg)
	job, err := s.Submit(JobSpec{
		Random:      &RandomSpec{Agents: 4, Tasks: 3},
		W:           []int{1, 2, 3},
		Seed:        11,
		Parallelism: 64, // above the cap: ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	if job.State() != StateDone {
		t.Fatalf("state %s: %s", job.State(), job.View().Error)
	}
}

// TestMatchesCentralizedComparesPrices: matches_centralized covers the
// prices and payments, not only the winners. A result with MinWork's
// winners and one second price off by one does not match.
func TestMatchesCentralizedComparesPrices(t *testing.T) {
	bids := [][]int{{1, 3}, {2, 1}, {3, 2}, {3, 3}, {2, 2}}
	res := directRun(t, JobSpec{W: []int{1, 2, 3}, Seed: 4}, bids)
	if !matchesCentralized(res, bids) {
		t.Fatalf("honest run does not match MinWork: %+v", res.Auctions)
	}
	res.Auctions[0].SecondPrice++
	res.Outcome.SecondPrice[0]++
	if matchesCentralized(res, bids) {
		t.Error("a second price off by one still matches MinWork")
	}
}
