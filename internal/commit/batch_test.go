package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/poly"
)

// batchItems builds the (commitments, share) pairs a receiver at
// pseudonym alpha holds for every other agent.
func batchItems(t *testing.T, encs []*bidcode.EncodedBid, comms []*Commitments, alpha *big.Int, receiver int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, 0, len(encs)-1)
	for k := range encs {
		if k == receiver {
			continue
		}
		items = append(items, BatchItem{Sender: k, C: comms[k], S: encs[k].ShareFor(alpha)})
	}
	return items
}

func TestBatchAcceptsHonest(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	for i, alpha := range alphas {
		pw := PowersOf(g.Scalars(), alpha, sigma)
		items := batchItems(t, encs, comms, alpha, i)
		if err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(int64(i)))); err != nil {
			t.Errorf("receiver %d: %v", i, err)
		}
	}
}

func TestBatchEmptyIsAccepted(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	pw := PowersOf(g.Scalars(), alphas[0], cfg.Sigma())
	if err := BatchVerifyShares(g, pw, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
}

// TestBatchAttributesGuiltySender tampers one sender's share or
// commitments and checks that the batch (a) rejects, (b) names exactly
// that sender, and (c) surfaces the same equation error the per-sender
// check reports.
func TestBatchAttributesGuiltySender(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	const receiver = 0
	alpha := alphas[receiver]
	pw := PowersOf(g.Scalars(), alpha, sigma)

	tests := []struct {
		name   string
		guilty int
		mutate func(items []BatchItem, idx int)
		want   error
	}{
		{"tampered share E", 3, func(items []BatchItem, idx int) {
			s := items[idx].S.Clone()
			s.E.Add(s.E, big.NewInt(1))
			items[idx].S = s
		}, ErrProductCheck},
		{"tampered share H", 5, func(items []BatchItem, idx int) {
			s := items[idx].S.Clone()
			s.H.Add(s.H, big.NewInt(1))
			items[idx].S = s
		}, ErrEShareCheck},
		{"tampered commitment O", 1, func(items []BatchItem, idx int) {
			c := items[idx].C.Clone()
			c.O[2] = g.Mul(c.O[2], g.Params().Z1)
			items[idx].C = c
		}, ErrProductCheck},
		{"tampered commitment R", 6, func(items []BatchItem, idx int) {
			c := items[idx].C.Clone()
			c.R[0] = g.Mul(c.R[0], g.Params().Z2)
			items[idx].C = c
		}, ErrFShareCheck},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			items := batchItems(t, encs, comms, alpha, receiver)
			idx := -1
			for i, it := range items {
				if it.Sender == tt.guilty {
					idx = i
				}
			}
			tt.mutate(items, idx)
			err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(42)))
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("error = %v, want *VerifyError", err)
			}
			if verr.Sender != tt.guilty {
				t.Errorf("attributed sender %d, want %d", verr.Sender, tt.guilty)
			}
			if !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestBatchMatchesPerSenderVerdicts is the agreement property: over random
// tamper choices, the batch must accept exactly the inputs the sequential
// per-sender scan accepts, and on rejection name the first (lowest-index)
// sender the scan would have named.
func TestBatchMatchesPerSenderVerdicts(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		receiver := rng.Intn(len(encs))
		alpha := alphas[receiver]
		pw := PowersOf(g.Scalars(), alpha, sigma)
		items := batchItems(t, encs, comms, alpha, receiver)
		// Tamper each sender independently with probability 1/4.
		for i := range items {
			if rng.Intn(4) != 0 {
				continue
			}
			s := items[i].S.Clone()
			switch rng.Intn(4) {
			case 0:
				s.E.Add(s.E, big.NewInt(1))
			case 1:
				s.F.Add(s.F, big.NewInt(1))
			case 2:
				s.G.Add(s.G, big.NewInt(1))
			default:
				s.H.Add(s.H, big.NewInt(1))
			}
			items[i].S = s
		}
		// Reference: sequential first-failure scan.
		var wantSender = -1
		var wantErr error
		for _, it := range items {
			if err := it.C.VerifyShare(g, pw, it.S); err != nil {
				wantSender, wantErr = it.Sender, err
				break
			}
		}
		err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(int64(trial))))
		if wantSender < 0 {
			if err != nil {
				t.Fatalf("trial %d: batch rejected input the scan accepts: %v", trial, err)
			}
			continue
		}
		var verr *VerifyError
		if !errors.As(err, &verr) {
			t.Fatalf("trial %d: batch accepted input the scan rejects (agent %d: %v)", trial, wantSender, wantErr)
		}
		if verr.Sender != wantSender || !errors.Is(err, wantErr) {
			t.Fatalf("trial %d: batch blames agent %d with %v, scan blames agent %d with %v",
				trial, verr.Sender, verr.Err, wantSender, wantErr)
		}
	}
}

// TestBatchRejectsOutOfSubgroupElement pins the MultiExpNoReduce
// soundness subtlety: a commitment element outside the order-q subgroup
// (where exponent reduction mod q would be invalid) must still be
// detected and attributed.
func TestBatchRejectsOutOfSubgroupElement(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	pr := g.Params()
	// Find a small element of Z_p^* outside the order-q subgroup.
	outsider := (*big.Int)(nil)
	for c := int64(2); c < 100; c++ {
		cand := big.NewInt(c)
		if new(big.Int).Exp(cand, pr.Q, pr.P).Cmp(big.NewInt(1)) != 0 {
			outsider = cand
			break
		}
	}
	if outsider == nil {
		t.Fatal("no out-of-subgroup element found")
	}
	const receiver, guilty = 0, 4
	alpha := alphas[receiver]
	pw := PowersOf(g.Scalars(), alpha, sigma)
	items := batchItems(t, encs, comms, alpha, receiver)
	for i := range items {
		if items[i].Sender != guilty {
			continue
		}
		c := items[i].C.Clone()
		c.Q[1] = g.Mul(c.Q[1], outsider)
		items[i].C = c
	}
	err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(8)))
	var verr *VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("out-of-subgroup tamper not rejected: %v", err)
	}
	if verr.Sender != guilty {
		t.Errorf("attributed sender %d, want %d", verr.Sender, guilty)
	}
}

func TestBatchStructuralErrorsAttributed(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	alpha := alphas[0]
	pw := PowersOf(g.Scalars(), alpha, sigma)

	// Incomplete share.
	items := batchItems(t, encs, comms, alpha, 0)
	s := items[2].S.Clone()
	s.G = nil
	items[2].S = s
	var verr *VerifyError
	if err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(1))); !errors.As(err, &verr) || verr.Sender != items[2].Sender {
		t.Errorf("incomplete share: error = %v, want VerifyError for agent %d", err, items[2].Sender)
	}

	// Nil commitment element.
	items = batchItems(t, encs, comms, alpha, 0)
	c := items[4].C.Clone()
	c.Q[0] = nil
	items[4].C = c
	if err := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(1))); !errors.As(err, &verr) || verr.Sender != items[4].Sender {
		t.Errorf("nil element: error = %v, want VerifyError for agent %d", err, items[4].Sender)
	}

	// Sigma mismatch against the powers vector.
	items = batchItems(t, encs, comms, alpha, 0)
	if err := BatchVerifyShares(g, pw[:sigma-1], items, rand.New(rand.NewSource(1))); !errors.As(err, &verr) {
		t.Errorf("sigma mismatch: error = %v, want VerifyError", err)
	}
}

// syntheticBid builds an encoded bid of arbitrary sigma directly from
// random polynomials, bypassing bidcode.Encode's w_k < n - c + 1
// constraint (which caps sigma at small values for small n). Degrees:
// e = sigma-2, f = 2 so the product has degree exactly sigma; g and h are
// degree-sigma blinds. This is the shape the acceptance benchmark needs:
// n = 8 receivers at sigma = 32.
func syntheticBid(g *group.Group, sigma int, rng *rand.Rand) *bidcode.EncodedBid {
	mk := func(deg int) *poly.Poly {
		p, err := poly.NewRandomZeroConst(g.Scalars(), deg, rng)
		if err != nil {
			panic(err)
		}
		return p
	}
	return &bidcode.EncodedBid{
		Y:   2,
		Tau: sigma - 2,
		E:   mk(sigma - 2),
		F:   mk(2),
		G:   mk(sigma),
		H:   mk(sigma),
	}
}

// BenchmarkBatchVerifyShares is the acceptance benchmark of the batched
// verifier at the protocol's stress shape: n = 8 agents (7 senders),
// sigma = 32. Three variants:
//
//	seed:       the pre-engine per-sender path (per-term g.Exp products,
//	            two-pass fixed-base commitments), reimplemented inline
//	peritem:    today's VerifyShare per sender (multi-exp evalVector,
//	            joint-table Commit)
//	batched:    BatchVerifyShares random-linear-combination identity
//
// The acceptance criterion is batched >= 2x faster than seed. Note the
// batch's random coefficients widen the exponents by 64 bits, so its
// edge over the per-item path grows with the modulus: at Test64 the
// widening eats most of the collapse, at Sim256 the batch wins outright.
func BenchmarkBatchVerifyShares(b *testing.B) {
	for _, preset := range []string{group.PresetTest64, group.PresetSim256} {
		b.Run(preset, func(b *testing.B) {
			benchBatchVerify(b, preset)
		})
	}
}

func benchBatchVerify(b *testing.B, preset string) {
	g := group.MustNew(group.MustPreset(preset))
	const n, sigma = 8, 32
	rng := rand.New(rand.NewSource(5))
	encs := make([]*bidcode.EncodedBid, n)
	comms := make([]*Commitments, n)
	for k := 0; k < n; k++ {
		encs[k] = syntheticBid(g, sigma, rng)
		c, err := New(g, encs[k], sigma)
		if err != nil {
			b.Fatal(err)
		}
		comms[k] = c
	}
	alpha := big.NewInt(9)
	pw := PowersOf(g.Scalars(), alpha, sigma)
	items := make([]BatchItem, 0, n-1)
	for k := 1; k < n; k++ {
		items = append(items, BatchItem{Sender: k, C: comms[k], S: encs[k].ShareFor(alpha)})
	}

	// seedVerify reproduces the pre-engine verification arithmetic.
	f := g.Scalars()
	seedEval := func(vec []*big.Int) *big.Int {
		acc := g.One()
		for l := range vec {
			acc = g.Mul(acc, g.Exp(vec[l], pw[l]))
		}
		return acc
	}
	seedCommit := func(x, r *big.Int) *big.Int {
		return g.Mul(g.Pow1(x), g.Pow2(r))
	}
	seedVerify := func(it BatchItem) bool {
		if seedCommit(f.Mul(it.S.E, it.S.F), it.S.G).Cmp(seedEval(it.C.O)) != 0 {
			return false
		}
		if seedCommit(it.S.E, it.S.H).Cmp(seedEval(it.C.Q)) != 0 {
			return false
		}
		return seedCommit(it.S.F, it.S.H).Cmp(seedEval(it.C.R)) == 0
	}

	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if !seedVerify(it) {
					b.Fatal("seed path rejected honest share")
				}
			}
		}
	})
	b.Run("peritem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if err := it.C.VerifyShare(g, pw, it.S); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		coeffRng := rand.New(rand.NewSource(7))
		for i := 0; i < b.N; i++ {
			if err := BatchVerifyShares(g, pw, items, coeffRng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// unmergedCheck is the reference for base merging: the combined identity
// over the plain concatenation of every request's terms — one multi-exp
// term per (item, vector, l) carrying its own exponent r*alpha^l, the way
// combinedCheck evaluated a pass before terms sharing a base were merged.
// Coefficients are drawn exactly as rlcAcc draws them, so given equal
// seeds both forms see the same r7, r8, r9.
func unmergedCheck(t *testing.T, g *group.Group, reqs []Request) bool {
	t.Helper()
	var draw rlcAcc
	a, b := new(big.Int), new(big.Int)
	var bases, exps []*big.Int
	mul := func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }
	for _, req := range reqs {
		for _, it := range req.Items {
			r7, r8, r9 := new(big.Int), new(big.Int), new(big.Int)
			for _, r := range []*big.Int{r7, r8, r9} {
				if err := draw.drawCoeff(req.Rng, r); err != nil {
					t.Fatal(err)
				}
			}
			a.Add(a, mul(r7, mul(it.S.E, it.S.F))).Add(a, mul(r8, it.S.E)).Add(a, mul(r9, it.S.F))
			b.Add(b, mul(r7, it.S.G)).Add(b, mul(new(big.Int).Add(r8, r9), it.S.H))
			for l, ap := range req.AlphaPowers {
				bases = append(bases, it.C.O[l], it.C.Q[l], it.C.R[l])
				exps = append(exps, mul(r7, ap), mul(r8, ap), mul(r9, ap))
			}
		}
	}
	rhs, err := g.MultiExpNoReduce(bases, exps)
	if err != nil {
		t.Fatal(err)
	}
	return g.Equal(g.Commit(a, b), rhs)
}

// TestMergedPassMatchesUnmerged: merging the terms that share a base
// must not change what a combined pass decides. The last case is the one
// that forbids reducing the summed exponents mod q: an element of order
// 2 contributes (-1)^exponent, which depends on the exponent's parity as
// an INTEGER, so the pass accepts on some coefficient draws and rejects
// on others — and the merged form must agree draw for draw.
func TestMergedPassMatchesUnmerged(t *testing.T) {
	honest := func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) { return receiverJobs(t) }
	cases := []struct {
		name  string
		build func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int)
		// want: +1 every draw accepts, -1 every draw rejects, 0 both occur.
		want int
	}{
		{"honest", honest, +1},
		{"honest, one receiver holding its own copy of a sender's commitments", func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
			g, jobs, powers := honest(t)
			jobs[2][4].C = jobs[2][4].C.Clone()
			return g, jobs, powers
		}, +1},
		{"tampered share", func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
			g, jobs, powers := honest(t)
			s := jobs[3][5].S.Clone()
			s.E.Add(s.E, big.NewInt(1))
			jobs[3][5].S = s
			return g, jobs, powers
		}, -1},
		{"equivocated commitments", func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
			g, jobs, powers := honest(t)
			c := jobs[5][1].C.Clone()
			c.R[0] = g.Mul(c.R[0], g.Params().Z2)
			jobs[5][1].C = c
			return g, jobs, powers
		}, -1},
		{"broadcast element outside the order-q subgroup", func(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
			g, jobs, powers := honest(t)
			// Every receiver holds sender 4's one broadcast object; p-1 has
			// order 2, so it lies outside the odd-order subgroup.
			minusOne := new(big.Int).Sub(g.P(), big.NewInt(1))
			var shared *Commitments
			for _, it := range jobs[0] {
				if it.Sender == 4 {
					shared = it.C
				}
			}
			shared.Q[1] = g.Mul(shared.Q[1], minusOne)
			return g, jobs, powers
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, jobs, powers := tc.build(t)
			requests := func(seed int64) []Request {
				reqs := make([]Request, len(jobs))
				for i := range jobs {
					reqs[i] = Request{AlphaPowers: powers[i], Items: jobs[i], Rng: rand.New(rand.NewSource(seed + int64(i)))}
				}
				return reqs
			}
			accepted, rejected := 0, 0
			for seed := int64(0); seed < 32; seed++ {
				want := unmergedCheck(t, g, requests(100*seed))
				got, err := combinedCheck(g, requests(100*seed))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: merged pass says %v, unmerged pass says %v", seed, got, want)
				}
				if got {
					accepted++
				} else {
					rejected++
				}
			}
			switch {
			case tc.want > 0 && rejected > 0:
				t.Errorf("%d of 32 draws rejected, want none", rejected)
			case tc.want < 0 && accepted > 0:
				t.Errorf("%d of 32 draws accepted, want none", accepted)
			case tc.want == 0 && (accepted == 0 || rejected == 0):
				t.Errorf("accepted %d, rejected %d: the case should depend on exponent parity", accepted, rejected)
			}
		})
	}
}
