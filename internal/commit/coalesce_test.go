package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"dmw/internal/group"
)

// receiverJobs builds every receiver's request over one auction's shared
// commitments: the shape a merged pass sees.
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

// roundRequests turns receiverJobs' output into one round's requests, each
// drawing its coefficients from its own stream.
func roundRequests(jobs [][]BatchItem, powers [][]*big.Int, seed int64) []Request {
	reqs := make([]Request, len(jobs))
	for i := range jobs {
		reqs[i] = Request{AlphaPowers: powers[i], Items: jobs[i], Rng: rand.New(rand.NewSource(seed + int64(i)))}
	}
	return reqs
}

// onePass fails t unless ctr saw exactly one combined pass (its Commit
// and its right-hand MultiExp) over the bases of senders distinct
// commitments objects, each raised once.
func onePass(t *testing.T, ctr *group.Counter, senders, sigma int) {
	t.Helper()
	if calls, terms := ctr.MultiExps(), ctr.MultiExpTerms(); calls != 2 || terms != uint64(2+3*sigma*senders) {
		t.Errorf("%d multi-exps over %d terms, want one pass: 2 over %d", calls, terms, 2+3*sigma*senders)
	}
}

// TestCoalescerGuiltyJobIsolation is the attribution pin of the merged
// pass: a round mixing ONE corrupt request among honest ones must fail
// only the corrupt request, name its guilty sender, and hand every honest
// request a clean nil — merging never spreads blame across receivers.
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

	for i, err := range VerifyBatch(g, roundRequests(jobs, powers, 1000)) {
		if i == corrupt {
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("corrupt request %d: error = %v, want *VerifyError", i, err)
			}
			if verr.Sender != guilty {
				t.Errorf("corrupt request blames sender %d, want %d", verr.Sender, guilty)
			}
			continue
		}
		if err != nil {
			t.Errorf("honest request %d failed: %v (cross-receiver blame)", i, err)
		}
	}
}

// TestCoalescerHonestCombinedPass: an honest round runs as one pass that
// raises each sender's bases once, and every request accepts.
func TestCoalescerHonestCombinedPass(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	var ctr group.Counter
	for i, err := range VerifyBatch(g.WithCounter(&ctr), roundRequests(jobs, powers, 1000)) {
		if err != nil {
			t.Errorf("honest request %d rejected: %v", i, err)
		}
	}
	onePass(t, &ctr, len(jobs), len(powers[0]))
}

// TestCoalescerStructuralErrorImmediate: a malformed request is
// attributed without joining the pass; the rest of the round still runs
// as one pass over every sender's bases.
func TestCoalescerStructuralErrorImmediate(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	const malformed = 0
	s := jobs[malformed][2].S.Clone()
	s.G = nil
	jobs[malformed][2].S = s

	var ctr group.Counter
	errs := VerifyBatch(g.WithCounter(&ctr), roundRequests(jobs, powers, 1))
	var verr *VerifyError
	if !errors.As(errs[malformed], &verr) || verr.Sender != jobs[malformed][2].Sender {
		t.Fatalf("error = %v, want *VerifyError for sender %d", errs[malformed], jobs[malformed][2].Sender)
	}
	for i, err := range errs[malformed+1:] {
		if err != nil {
			t.Errorf("request %d: %v", malformed+1+i, err)
		}
	}
	onePass(t, &ctr, len(jobs), len(powers[0]))
}

// TestCoalescerEmptyItems: nothing to verify accepts immediately.
func TestCoalescerEmptyItems(t *testing.T) {
	g, _, _ := testSetup(t)
	if errs := VerifyBatch(g, nil); len(errs) != 0 {
		t.Errorf("no requests: %v", errs)
	}
	if errs := VerifyBatch(g, []Request{{Rng: rand.New(rand.NewSource(1))}}); len(errs) != 1 || errs[0] != nil {
		t.Errorf("one empty request: %v", errs)
	}
	if err := NewCoalescer(g, 0, 0, nil).VerifyShares(nil, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
}

// TestCoalescerMatchesBatchVerdicts: a lone request, through VerifyBatch
// and through the Coalescer wrapper, must agree exactly with
// BatchVerifyShares, including the attributed sender and equation error
// on tampered input.
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
	var wantV *VerifyError
	if !errors.As(want, &wantV) {
		t.Fatalf("BatchVerifyShares: %v, want *VerifyError", want)
	}
	for name, got := range map[string]error{
		"VerifyBatch":  VerifyBatch(g, []Request{{AlphaPowers: pw, Items: items, Rng: rand.New(rand.NewSource(3))}})[0],
		"VerifyShares": NewCoalescer(g, 0, 0, nil).VerifyShares(pw, items, rand.New(rand.NewSource(3))),
	} {
		var gotV *VerifyError
		if !errors.As(got, &gotV) {
			t.Errorf("%s: %v, want *VerifyError", name, got)
			continue
		}
		if gotV.Sender != wantV.Sender || !errors.Is(got, wantV.Err) {
			t.Errorf("%s verdict (%d, %v) differs from batch verdict (%d, %v)",
				name, gotV.Sender, gotV.Err, wantV.Sender, wantV.Err)
		}
	}
}

// TestCoalescerConcurrentStress runs several rounds' passes on one group
// at once, as a Run's parallel auctions do; under -race this pins that a
// pass keeps all its state to itself. Every request is honest and must
// accept.
func TestCoalescerConcurrentStress(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	var wg sync.WaitGroup
	verdicts := make([][]error, 6)
	for b := range verdicts {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			verdicts[b] = VerifyBatch(g, roundRequests(jobs, powers, int64(100*b)))
		}(b)
	}
	wg.Wait()
	for b, errs := range verdicts {
		for i, err := range errs {
			if err != nil {
				t.Errorf("round %d request %d: %v", b, i, err)
			}
		}
	}
}

// TestCoalescerVerifyBatch: each verdict of a mixed round is exactly
// BatchVerifyShares' for that request alone: nil for the honest ones, the
// guilty sender for the corrupt one, the structural failure for the
// malformed one, nil for an empty request.
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

	got := VerifyBatch(g, roundRequests(jobs, powers, 0))
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
}
