package audit

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/payment"
	"dmw/internal/poly"
)

var auditParams = group.MustPreset(group.PresetTest64)

func recordedRun(t *testing.T, seed int64) (*protocol.Result, protocol.RunConfig) {
	t.Helper()
	cfg := protocol.RunConfig{
		Params: auditParams,
		Bid:    bidcode.Config{W: []int{1, 2, 3, 4}, C: 1, N: 6},
		TrueBids: [][]int{
			{1, 4},
			{3, 2},
			{4, 4},
			{2, 3},
			{4, 1},
			{3, 4},
		},
		Seed:   seed,
		Record: true,
	}
	res, err := protocol.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

func TestHonestTranscriptVerifies(t *testing.T) {
	res, _ := recordedRun(t, 42)
	if res.Transcript == nil {
		t.Fatal("Record did not produce a transcript")
	}
	rep, err := Verify(auditParams, res.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, f := range rep.Findings {
			t.Errorf("finding: %s", f)
		}
	}
	if rep.AuctionsChecked != 2 {
		t.Errorf("checked %d auctions, want 2", rep.AuctionsChecked)
	}
}

func TestVerifyDerivesClaimedOutcome(t *testing.T) {
	res, _ := recordedRun(t, 7)
	// Corrupt the CLAIMED outcome only; the published values still
	// derive the true one, so the auditor must flag the mismatch.
	res.Transcript.Auctions[0].Claimed.Winner = 5
	rep, err := Verify(auditParams, res.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("auditor accepted a forged claimed outcome")
	}
}

func TestVerifyCatchesTamperedTranscript(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*protocol.AuctionTranscript)
	}{
		{"tampered lambda", func(at *protocol.AuctionTranscript) {
			at.Lambda[2] = new(big.Int).Add(at.Lambda[2], big.NewInt(1))
		}},
		// Note: tampering the O vector is NOT offline-detectable — eq (7)
		// needs the private shares — so the auditor checks Q (via eq 11)
		// and R (via eq 13) only; O integrity is enforced online by the
		// share receivers.
		{"tampered Q commitment", func(at *protocol.AuctionTranscript) {
			at.Commitments[1].Q[0] = new(big.Int).Add(at.Commitments[1].Q[0], big.NewInt(1))
		}},
		{"tampered R commitment", func(at *protocol.AuctionTranscript) {
			at.Commitments[1].R[0] = new(big.Int).Add(at.Commitments[1].R[0], big.NewInt(1))
		}},
		{"missing lambda", func(at *protocol.AuctionTranscript) {
			at.Lambda[3] = nil
		}},
		{"missing commitments", func(at *protocol.AuctionTranscript) {
			at.Commitments[0] = nil
		}},
		{"tampered disclosure", func(at *protocol.AuctionTranscript) {
			for k, f := range at.Disclosures {
				f[0] = new(big.Int).Add(f[0], big.NewInt(1))
				at.Disclosures[k] = f
				break
			}
		}},
		{"tampered bar lambda", func(at *protocol.AuctionTranscript) {
			at.BarLambda[4] = new(big.Int).Add(at.BarLambda[4], big.NewInt(1))
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, _ := recordedRun(t, 11)
			tt.mutate(res.Transcript.Auctions[0])
			rep, err := Verify(auditParams, res.Transcript)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Error("auditor accepted a tampered transcript")
			}
			if len(rep.Findings) == 0 {
				t.Error("no findings recorded")
			}
		})
	}
}

func TestVerifyCatchesForgedPayments(t *testing.T) {
	res, _ := recordedRun(t, 13)
	// All agents collude on an inflated payment claim: the settlement is
	// unanimous, but the derived outcome contradicts it.
	for i := range res.Transcript.Claims {
		res.Transcript.Claims[i].Payments[0] += 50
	}
	rep, err := Verify(auditParams, res.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PaymentsOK {
		t.Error("auditor accepted colluding inflated payments")
	}
}

func TestVerifySkipsAbortedAuctions(t *testing.T) {
	res, _ := recordedRun(t, 17)
	res.Transcript.Auctions[1].Claimed = protocol.AuctionOutcome{
		Task: 1, Aborted: true, AbortReason: "test", Winner: -1,
	}
	rep, err := Verify(auditParams, res.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AuctionsChecked != 1 {
		t.Errorf("checked %d auctions, want 1", rep.AuctionsChecked)
	}
}

func TestVerifyValidatesInputs(t *testing.T) {
	if _, err := Verify(auditParams, nil); err == nil {
		t.Error("nil transcript accepted")
	}
	res, _ := recordedRun(t, 19)
	if _, err := Verify(&group.Params{}, res.Transcript); err == nil {
		t.Error("invalid params accepted")
	}
	bad := *res.Transcript
	bad.Bid = bidcode.Config{}
	if _, err := Verify(auditParams, &bad); err == nil {
		t.Error("invalid bid config accepted")
	}
}

// chanceTranscript publishes one honest-looking auction whose summed
// e-polynomial breaks the monotonicity degree resolution relies on. With
// tau = sigma - y* the true degree, the sum is
//
//	E = P + (x - alpha_0)...(x - alpha_d0) * S,   P(0) = S(0) = 0, deg P <= d0
//
// so the first d0+1 pseudonyms interpolate E to P(0) = 0: the probe at
// d0 < tau succeeds, as it would by chance with probability ~1/q. Agent 0
// bids y* and absorbs the crafted sum; every published value is what
// honest agents holding these polynomials would publish, and the claimed
// outcome is the one commit.Resolver derives from them.
func chanceTranscript(t *testing.T, d0 int) (*protocol.Transcript, bidcode.Config, *poly.Poly) {
	t.Helper()
	g := group.MustNew(auditParams)
	f := g.Scalars()
	cfg := bidcode.Config{W: []int{1, 2, 3, 4, 5, 6}, C: 0, N: 7} // sigma 7, candidates 1..6
	bids := []int{1, 3, 5, 2, 6, 4, 6}
	sigma, n := cfg.Sigma(), cfg.N
	tau := sigma - bids[0]
	alphas, err := bidcode.Pseudonyms(f, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(d0)))
	encs := make([]*bidcode.EncodedBid, n)
	for i, y := range bids {
		if encs[i], err = bidcode.Encode(cfg, y, f, rng); err != nil {
			t.Fatal(err)
		}
	}
	p, err := poly.NewRandomZeroConst(f, d0, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := poly.NewRandomZeroConst(f, tau-d0-1, rng)
	if err != nil {
		t.Fatal(err)
	}
	target := s
	for _, a := range alphas[:d0+1] {
		target = target.Mul(poly.New(f, []*big.Int{new(big.Int).Neg(a), big.NewInt(1)}))
	}
	target = target.Add(p)
	others := poly.New(f, nil)
	for _, enc := range encs[1:] {
		others = others.Add(enc.E)
	}
	encs[0].E = target.Add(others.Mul(poly.New(f, []*big.Int{big.NewInt(-1)})))

	at := &protocol.AuctionTranscript{
		Commitments: make([]*commit.Commitments, n),
		Lambda:      make([]*big.Int, n), Psi: make([]*big.Int, n),
		Disclosures: map[int][]*big.Int{},
		BarLambda:   make([]*big.Int, n), BarPsi: make([]*big.Int, n),
	}
	for i, enc := range encs {
		if at.Commitments[i], err = commit.New(g, enc, sigma); err != nil {
			t.Fatal(err)
		}
	}
	pair := func(k, exclude int) (*big.Int, *big.Int) {
		esum, hsum := new(big.Int), new(big.Int)
		for i, enc := range encs {
			if i != exclude {
				esum, hsum = f.Add(esum, enc.E.Eval(alphas[k])), f.Add(hsum, enc.H.Eval(alphas[k]))
			}
		}
		return g.Pow1(esum), g.Pow2(hsum)
	}
	for k := range alphas {
		at.Lambda[k], at.Psi[k] = pair(k, -1)
	}
	nodes, err := f.Nodes(len(alphas), cfg.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	r := commit.ResolverOver(cfg.DegreeCandidates(), nodes)
	first, err := r.Resolve(g, at.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	price := sigma - first
	for k := 0; k <= price; k++ {
		at.Disclosures[k] = make([]*big.Int, n)
		for l, enc := range encs {
			at.Disclosures[k][l] = enc.F.Eval(alphas[k])
		}
	}
	winner := 0
	for bids[winner] > price {
		winner++
	}
	for k := range alphas {
		at.BarLambda[k], at.BarPsi[k] = pair(k, winner)
	}
	second, err := r.Resolve(g, at.BarLambda)
	if err != nil {
		t.Fatal(err)
	}
	at.Claimed = protocol.AuctionOutcome{Winner: winner, FirstPrice: price, SecondPrice: sigma - second}
	payments := make([]int64, n)
	payments[winner] = int64(at.Claimed.SecondPrice)
	tr := &protocol.Transcript{Bid: cfg, Auctions: []*protocol.AuctionTranscript{at}}
	for i := 0; i < n; i++ {
		tr.Claims = append(tr.Claims, payment.Claim{From: i, Payments: payments})
	}
	return tr, cfg, target
}

// TestVerifyAcceptsChanceResolution pins what the bisecting resolver does
// when a chance success below tau makes the probe non-monotone, and that
// the auditor, running the same resolver, accepts the outcome the agents
// derived. With W = {1..6} (candidates 1..6, u = 6) the bisection probes
// index 3 (d = 4) first: a chance success at d0 = 2 lies off its path and
// it resolves the true degree 6 where the ascending scan stopped at 2; a
// chance success at d0 = 4 is on its path and both resolve 4.
func TestVerifyAcceptsChanceResolution(t *testing.T) {
	for _, tc := range []struct{ d0, firstPrice, scanPrice int }{
		{d0: 2, firstPrice: 1, scanPrice: 5},
		{d0: 4, firstPrice: 3, scanPrice: 3},
	} {
		t.Run(fmt.Sprintf("d0=%d", tc.d0), func(t *testing.T) {
			tr, cfg, target := chanceTranscript(t, tc.d0)
			// The crafted sum's probes: true at d0 and from tau on, false
			// everywhere else, so the scan's answer is d0.
			alphas, err := bidcode.Pseudonyms(target.Field(), cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range cfg.DegreeCandidates() {
				pts := make([]poly.Share, d+1)
				for k := range pts {
					pts[k] = poly.Share{Node: alphas[k], Value: target.Eval(alphas[k])}
				}
				v, err := poly.InterpolateAtZero(target.Field(), pts)
				if err != nil {
					t.Fatal(err)
				}
				if want := d == tc.d0 || d >= cfg.Sigma()-1; (v.Sign() == 0) != want {
					t.Fatalf("probe at d=%d is %v, want %v", d, v.Sign() == 0, want)
				}
			}
			if got := cfg.Sigma() - tc.d0; got != tc.scanPrice {
				t.Fatalf("fixture: scan price %d, want %d", got, tc.scanPrice)
			}

			at := tr.Auctions[0]
			if at.Claimed.FirstPrice != tc.firstPrice {
				t.Fatalf("bisection resolved first price %d, want %d", at.Claimed.FirstPrice, tc.firstPrice)
			}
			rep, err := Verify(auditParams, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.AuctionsChecked != 1 {
				t.Fatalf("auditor rejected the agents' outcome %+v: %v", at.Claimed, rep.Findings)
			}
			if tc.scanPrice != tc.firstPrice {
				at.Claimed.FirstPrice = tc.scanPrice
				if rep, err := Verify(auditParams, tr); err != nil || rep.OK() {
					t.Fatalf("auditor accepted the scan's first price %d (err %v)", tc.scanPrice, err)
				}
			}
		})
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Task: 2, Agent: 3, Issue: "x"}
	if f.String() != "task 2, agent 3: x" {
		t.Errorf("String = %q", f.String())
	}
	f.Agent = -1
	if f.String() != "task 2: x" {
		t.Errorf("String = %q", f.String())
	}
}
