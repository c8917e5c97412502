package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dmw/internal/group"
)

// pendingCount peeks at the coalescer's queue.
func (c *Coalescer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// flushBatch hands the coalescer one hand-built batch, exactly as a pass
// leader would after collecting it, and returns the per-job verdicts. The
// grouping under test is thereby fixed by the test, not by which
// goroutine happened to arrive while a pass was running.
func flushBatch(c *Coalescer, jobs [][]BatchItem, powers [][]*big.Int) []error {
	batch := make([]*pendingReq, len(jobs))
	for i := range jobs {
		batch[i] = &pendingReq{
			req:  Request{AlphaPowers: powers[i], Items: jobs[i], Rng: rand.New(rand.NewSource(int64(1000 + i)))},
			wake: make(chan wakeup, 1),
		}
	}
	c.flush(batch)
	errs := make([]error, len(batch))
	for i, p := range batch {
		errs[i] = (<-p.wake).err
	}
	return errs
}

// receiverJobs builds every receiver's request over one auction's shared
// commitments: the shape a combined pass sees.
func receiverJobs(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
	t.Helper()
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	jobs := make([][]BatchItem, len(alphas))
	powers := make([][]*big.Int, len(alphas))
	for i, alpha := range alphas {
		powers[i] = PowersOf(g.Scalars(), alpha, cfg.Sigma())
		jobs[i] = batchItems(t, encs, comms, alpha, i)
	}
	return g, jobs, powers
}

// TestCoalescerGuiltyJobIsolation is the cross-job attribution pin: a
// combined pass mixing ONE corrupt job among honest ones must fail only
// the corrupt job, name that job's guilty sender, and hand every honest
// job a clean nil — coalescing never spreads blame across jobs.
func TestCoalescerGuiltyJobIsolation(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	const corrupt, guilty = 3, 6
	for idx, it := range jobs[corrupt] {
		if it.Sender != guilty {
			continue
		}
		s := it.S.Clone()
		s.E.Add(s.E, big.NewInt(1))
		jobs[corrupt][idx].S = s
	}

	var passes, items int
	c := NewCoalescer(g, 0, 0, func(n int) { passes++; items += n })
	errs := flushBatch(c, jobs, powers)

	for i, err := range errs {
		if i == corrupt {
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("corrupt job %d: error = %v, want *VerifyError", i, err)
			}
			if verr.Sender != guilty {
				t.Errorf("corrupt job blames sender %d, want %d", verr.Sender, guilty)
			}
			continue
		}
		if err != nil {
			t.Errorf("honest job %d failed: %v (cross-job blame)", i, err)
		}
	}
	// The scenario only means something if the jobs actually shared a
	// pass: one combined pass over every job's items.
	if passes != 1 {
		t.Fatalf("jobs ran in %d passes, want 1 combined pass", passes)
	}
	wantItems := 0
	for _, j := range jobs {
		wantItems += len(j)
	}
	if items != wantItems {
		t.Errorf("observed %d items, want %d", items, wantItems)
	}
}

// TestCoalescerHonestCombinedPass: all-honest jobs coalesce into one
// pass and all accept.
func TestCoalescerHonestCombinedPass(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	var passes int
	c := NewCoalescer(g, 0, 0, func(int) { passes++ })
	for i, err := range flushBatch(c, jobs, powers) {
		if err != nil {
			t.Errorf("honest job %d rejected: %v", i, err)
		}
	}
	if passes != 1 {
		t.Errorf("honest jobs ran in %d passes, want 1", passes)
	}
}

// TestCoalescerChunkingRespectsMaxTerms: with maxTerms forcing one
// request per chunk, a batch still verifies every job correctly — the
// bound changes grouping, never verdicts.
func TestCoalescerChunkingRespectsMaxTerms(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	perJobTerms := 3 * len(powers[0]) * len(jobs[0])
	var passes int
	c := NewCoalescer(g, 0, perJobTerms, func(int) { passes++ })
	for i, err := range flushBatch(c, jobs, powers) {
		if err != nil {
			t.Errorf("job %d rejected: %v", i, err)
		}
	}
	if passes != len(jobs) {
		t.Errorf("ran %d passes, want %d (maxTerms forces one request per chunk)", passes, len(jobs))
	}
}

// TestCoalescerHandoff pins how passes form and who runs them. The
// observe callback runs on the leader's goroutine at the start of each
// pass, so blocking in it holds a pass open for as long as the test
// likes: no timing involved.
//
//   - A request that finds the coalescer idle runs a pass at once, alone.
//   - Requests arriving during a pass all land in the NEXT pass: none
//     waits through more than one pass it is not part of.
//   - The finishing leader returns as soon as its own pass is done; the
//     next pass is run by the head of the queue (were the first leader
//     draining the queue itself, it could not return while the second
//     pass is held open).
func TestCoalescerHandoff(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})}
	close(gates[3])                       // only the first three passes are held
	started := make(chan int, len(gates)) // items of each pass, as it starts
	// A broken handoff shows up as a wait that never ends; fail it instead
	// of hanging the suite.
	stuck := time.After(time.Minute)
	pass := 0
	c := NewCoalescer(g, 0, 0, func(items int) {
		gate := gates[pass] // passes run one at a time: no race on pass
		pass++
		started <- items
		<-gate
	})
	done := make([]chan error, len(jobs))
	submit := func(i int) {
		done[i] = make(chan error, 1)
		go func() { done[i] <- c.VerifyShares(powers[i], jobs[i], rand.New(rand.NewSource(int64(i)))) }()
	}
	waitQueued := func(want int) {
		for c.pendingCount() < want {
			runtime.Gosched()
		}
	}
	wantStarted := func(what string, members ...int) {
		t.Helper()
		want := 0
		for _, i := range members {
			want += len(jobs[i])
		}
		select {
		case got := <-started:
			if got != want {
				t.Fatalf("%s covers %d items, want %d (jobs %v)", what, got, want, members)
			}
		case <-stuck:
			t.Fatalf("%s never started", what)
		}
	}
	wantDone := func(members ...int) {
		t.Helper()
		for _, i := range members {
			select {
			case err := <-done[i]:
				if err != nil {
					t.Errorf("job %d: %v", i, err)
				}
			case <-stuck:
				t.Fatalf("job %d never returned", i)
			}
		}
	}

	submit(0)
	wantStarted("the pass of a lone arrival", 0)
	submit(1)
	waitQueued(1) // job 1 is at the head of the queue: the next leader
	submit(2)
	submit(3)
	waitQueued(3)
	close(gates[0])
	wantStarted("the pass after it", 1, 2, 3)
	// The second pass is held open, and the first leader is back already.
	wantDone(0)
	submit(4)
	submit(5)
	waitQueued(2)
	close(gates[1])
	wantDone(1, 2, 3)
	wantStarted("the third pass", 4, 5)
	close(gates[2])
	wantDone(4, 5)
	if c.pendingCount() != 0 {
		t.Error("requests left queued")
	}
	// Idle again: the next arrival runs its own pass at once.
	submit(6)
	wantStarted("the pass of an arrival at an idle coalescer", 6)
	wantDone(6)
}

// TestCoalescerStructuralErrorImmediate: malformed input is attributed
// before joining any pass — no queueing, no combined check.
func TestCoalescerStructuralErrorImmediate(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	pw := PowersOf(g.Scalars(), alphas[0], sigma)
	items := batchItems(t, encs, comms, alphas[0], 0)
	s := items[2].S.Clone()
	s.G = nil
	items[2].S = s

	passes := 0
	c := NewCoalescer(g, 0, 0, func(int) { passes++ })
	err := c.VerifyShares(pw, items, rand.New(rand.NewSource(1)))
	var verr *VerifyError
	if !errors.As(err, &verr) || verr.Sender != items[2].Sender {
		t.Fatalf("error = %v, want *VerifyError for sender %d", err, items[2].Sender)
	}
	if passes != 0 {
		t.Error("structural error ran a verification pass")
	}
	if c.pendingCount() != 0 {
		t.Error("structural error joined the pending queue")
	}
}

// TestCoalescerEmptyItems: nothing to verify accepts immediately.
func TestCoalescerEmptyItems(t *testing.T) {
	g, _, _ := testSetup(t)
	c := NewCoalescer(g, 0, 0, nil)
	if err := c.VerifyShares(nil, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
}

// TestCoalescerMatchesBatchVerdicts: a solo pass (no concurrent
// company) must agree exactly with BatchVerifyShares, including the
// attributed sender and equation error on tampered input.
func TestCoalescerMatchesBatchVerdicts(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	pw := PowersOf(g.Scalars(), alphas[0], sigma)
	items := batchItems(t, encs, comms, alphas[0], 0)
	const guilty = 5
	for idx := range items {
		if items[idx].Sender != guilty {
			continue
		}
		ctam := items[idx].C.Clone()
		ctam.O[1] = g.Mul(ctam.O[1], g.Params().Z1)
		items[idx].C = ctam
	}

	want := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(3)))
	c := NewCoalescer(g, 0, 0, nil)
	got := c.VerifyShares(pw, items, rand.New(rand.NewSource(3)))

	var wantV, gotV *VerifyError
	if !errors.As(want, &wantV) || !errors.As(got, &gotV) {
		t.Fatalf("want %v, got %v — both should be *VerifyError", want, got)
	}
	if gotV.Sender != wantV.Sender || !errors.Is(got, wantV.Err) {
		t.Errorf("coalesced verdict (%d, %v) differs from batch verdict (%d, %v)",
			gotV.Sender, gotV.Err, wantV.Sender, wantV.Err)
	}
}

// TestCoalescerConcurrentStress drives many rounds of concurrent
// requests through one coalescer; run under -race this pins the
// leader/member handoff. Verdict correctness is covered above —
// here every job is honest and must accept.
func TestCoalescerConcurrentStress(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	c := NewCoalescer(g, 0, 0, func(int) {})

	var wg sync.WaitGroup
	errs := make([]error, len(alphas)*3)
	for round := 0; round < 3; round++ {
		for i, alpha := range alphas {
			pw := PowersOf(g.Scalars(), alpha, sigma)
			items := batchItems(t, encs, comms, alpha, i)
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				errs[slot] = c.VerifyShares(pw, items, rand.New(rand.NewSource(int64(slot))))
			}(round*len(alphas) + i)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
}

// TestCoalescerVerifyBatch: a batch of requests (one auction's receivers,
// as the lockstep driver hands them over) runs as one pass, and each
// request's verdict is exactly BatchVerifyShares': nil for the honest
// ones, the guilty sender for the corrupt one, the structural failure
// attributed without a pass, nil for an empty request. Concurrent
// batches join one queue and all accept.
func TestCoalescerVerifyBatch(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	const corrupt, guilty, malformed, empty = 2, 5, 4, 6
	for idx, it := range jobs[corrupt] {
		if it.Sender == guilty {
			s := it.S.Clone()
			s.H.Add(s.H, big.NewInt(1))
			jobs[corrupt][idx].S = s
		}
	}
	s := jobs[malformed][0].S.Clone()
	s.F = nil
	jobs[malformed][0].S = s
	jobs[empty] = nil

	reqs := make([]Request, len(jobs))
	for i := range jobs {
		reqs[i] = Request{AlphaPowers: powers[i], Items: jobs[i], Rng: rand.New(rand.NewSource(int64(i)))}
	}
	var passes, items int
	c := NewCoalescer(g, 0, 0, func(n int) { passes++; items += n })
	got := c.VerifyBatch(reqs)
	for i := range jobs {
		want := BatchVerifyShares(g, powers[i], jobs[i], rand.New(rand.NewSource(int64(i))))
		var wantV, gotV *VerifyError
		switch {
		case want == nil:
			if got[i] != nil {
				t.Errorf("request %d: %v, want nil", i, got[i])
			}
		case !errors.As(want, &wantV) || !errors.As(got[i], &gotV):
			t.Errorf("request %d: %v, want %v", i, got[i], want)
		case gotV.Sender != wantV.Sender || gotV.Err.Error() != wantV.Err.Error():
			t.Errorf("request %d: (%d, %v), want (%d, %v)", i, gotV.Sender, gotV.Err, wantV.Sender, wantV.Err)
		}
	}
	if wantItems := len(jobs)*(len(jobs)-1) - 2*(len(jobs)-1); passes != 1 || items != wantItems {
		t.Errorf("%d passes over %d items, want 1 over %d", passes, items, wantItems)
	}

	_, honest, hpowers := receiverJobs(t)
	var wg sync.WaitGroup
	verdicts := make([][]error, 4)
	for b := range verdicts {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			reqs := make([]Request, len(honest))
			for i := range honest {
				reqs[i] = Request{AlphaPowers: hpowers[i], Items: honest[i], Rng: rand.New(rand.NewSource(int64(b*100 + i)))}
			}
			verdicts[b] = c.VerifyBatch(reqs)
		}(b)
	}
	wg.Wait()
	for b, errs := range verdicts {
		for i, err := range errs {
			if err != nil {
				t.Errorf("concurrent batch %d request %d: %v", b, i, err)
			}
		}
	}
}
