package commit

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
	"dmw/internal/poly"
)

// scanResolve is the ascending linear scan the engine and the auditor ran
// before Resolver bisected: one (d+1)-term multi-exponentiation per
// candidate until one interpolates to the identity. It is kept only as the
// oracle the bisection is checked against.
func scanResolve(g *group.Group, cands []int, alphas, lambdas []*big.Int) (int, error) {
	for _, d := range cands {
		need := d + 1
		if need > len(alphas) {
			return 0, fmt.Errorf("candidate degree %d needs %d nodes, have %d agents: %w",
				d, need, len(alphas), poly.ErrDegreeUnresolved)
		}
		rho, err := g.Scalars().LagrangeAtZero(alphas[:need])
		if err != nil {
			return 0, err
		}
		for k := 0; k < need; k++ {
			if lambdas[k] == nil {
				return 0, fmt.Errorf("missing resolution input from agent %d: %w", k, poly.ErrDegreeUnresolved)
			}
		}
		prod, err := g.MultiExp(lambdas[:need], rho)
		if err != nil {
			return 0, err
		}
		if g.IsOne(prod) {
			return d, nil
		}
	}
	return 0, poly.ErrDegreeUnresolved
}

// summedLambdas draws an e-polynomial of degree sigma - y per bid and
// returns z1^{sum_i e_i(alpha_k)} at every pseudonym, leaving out agent
// exclude (the second-price pass) when it is >= 0. It does not validate
// cfg, so it also serves configurations with too few agents.
func summedLambdas(t testing.TB, g *group.Group, cfg bidcode.Config, alphas []*big.Int, bids []int, exclude int, rng *rand.Rand) []*big.Int {
	f := g.Scalars()
	sums := make([]*big.Int, len(alphas))
	for k := range sums {
		sums[k] = new(big.Int)
	}
	for i, y := range bids {
		e, err := poly.NewRandomZeroConst(f, cfg.Sigma()-y, rng)
		if err != nil {
			t.Fatal(err)
		}
		if i == exclude {
			continue
		}
		for k, a := range alphas {
			sums[k] = f.Add(sums[k], e.Eval(a))
		}
	}
	out := make([]*big.Int, len(alphas))
	for k, s := range sums {
		out[k] = g.Pow1(s)
	}
	return out
}

// lowestBidder is the winner the protocol identifies: the smallest
// pseudonym among the lowest bids.
func lowestBidder(bids []int) int {
	w := 0
	for i, y := range bids {
		if y < bids[w] {
			w = i
		}
	}
	return w
}

// checkAgainstScan resolves lambdas with the bisection and the scan oracle
// and fails unless both give the same degree or the same error text.
func checkAgainstScan(t testing.TB, g *group.Group, r *Resolver, cands []int, alphas, lambdas []*big.Int, what string) {
	t.Helper()
	got, gotErr := r.Resolve(g, lambdas)
	want, wantErr := scanResolve(g, cands, alphas, lambdas)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: bisection (%d, %v) vs scan (%d, %v)", what, got, gotErr, want, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: bisection error %q, scan error %q", what, gotErr, wantErr)
	case gotErr == nil && got != want:
		t.Fatalf("%s: bisection resolved %d, scan resolved %d", what, got, want)
	}
}

// TestResolveMatchesScan is the bisection ≡ scan property: over random
// bid sets W, fault bounds c > 0, agent counts at and above sigma-w_1+1,
// random bids with frequent ties, and a nil entry at every index in turn,
// both the first-price and the winner-excluded second-price vectors
// resolve to the scan's degree or fail with the scan's error text.
func TestResolveMatchesScan(t *testing.T) {
	g := group.MustSharedFor(group.PresetTest64)
	rng := rand.New(rand.NewSource(27))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		var w []int
		for v := 1; v <= 8; v++ {
			if rng.Intn(2) == 0 {
				w = append(w, v)
			}
		}
		if len(w) == 0 {
			w = []int{1 + rng.Intn(8)}
		}
		cfg := bidcode.Config{W: w, C: rng.Intn(3)}
		cfg.N = cfg.MaxSharesNeeded() + rng.Intn(3)
		for cfg.Validate() != nil {
			cfg.N++
		}
		alphas, err := bidcode.Pseudonyms(g.Scalars(), cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		cands := cfg.DegreeCandidates()
		nodes, err := g.Scalars().Nodes(len(alphas), cfg.Sigma())
		if err != nil {
			t.Fatal(err)
		}
		r := ResolverOver(cands, nodes)
		// Draw from a narrow slice of W so that ties are common.
		lo := rng.Intn(len(w))
		hi := lo + 1 + rng.Intn(min(2, len(w)-lo))
		bids := make([]int, cfg.N)
		for i := range bids {
			bids[i] = w[lo+rng.Intn(hi-lo)]
		}
		for _, exclude := range []int{-1, lowestBidder(bids)} {
			lambdas := summedLambdas(t, g, cfg, alphas, bids, exclude, rng)
			what := fmt.Sprintf("trial %d (W=%v c=%d n=%d bids=%v exclude=%d)", trial, w, cfg.C, cfg.N, bids, exclude)
			checkAgainstScan(t, g, r, cands, alphas, lambdas, what)
			if d, err := r.Resolve(g, lambdas); err != nil {
				t.Fatalf("%s: %v", what, err)
			} else if want := minExcept(bids, exclude); cfg.Sigma()-d != want {
				t.Fatalf("%s: resolved price %d, want %d", what, cfg.Sigma()-d, want)
			}
			for k := range lambdas {
				holed := append([]*big.Int(nil), lambdas...)
				holed[k] = nil
				checkAgainstScan(t, g, r, cands, alphas, holed, fmt.Sprintf("%s nil at %d", what, k))
			}
		}
	}
}

func minExcept(bids []int, exclude int) int {
	m := -1
	for i, y := range bids {
		if i != exclude && (m < 0 || y < m) {
			m = y
		}
	}
	return m
}

// TestResolveTooFewAgents covers the scan's other early error: with fewer
// pseudonyms than the largest candidate needs, both report the first
// candidate that does not fit.
func TestResolveTooFewAgents(t *testing.T) {
	g := group.MustSharedFor(group.PresetTest64)
	cfg := bidcode.Config{W: []int{1, 2, 3, 4, 5}, C: 1, N: 4} // sigma 7: candidates 2..6
	alphas, err := bidcode.Pseudonyms(g.Scalars(), cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := g.Scalars().Nodes(len(alphas), cfg.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	r := ResolverOver(cfg.DegreeCandidates(), nodes)
	lambdas := summedLambdas(t, g, cfg, alphas, []int{1, 3, 5, 2}, -1, rand.New(rand.NewSource(3)))
	checkAgainstScan(t, g, r, cfg.DegreeCandidates(), alphas, lambdas, "n=4")
	if _, err := r.Resolve(g, lambdas); err == nil || err.Error() !=
		"candidate degree 4 needs 5 nodes, have 4 agents: poly: no candidate degree resolves" {
		t.Fatalf("err = %v", err)
	}
}

// FuzzResolveDegree: fuzzed bytes choose W, c, n (also below what W
// needs), the bids, the pass and a nil mask over Test64; the bisection
// must equal the scan oracle, or both must fail with the same error, and
// never panic.
func FuzzResolveDegree(f *testing.F) {
	f.Add(uint16(0b111), uint8(0), int8(0), int64(1), uint32(0), false)
	f.Add(uint16(0b11111111111), uint8(0), int8(0), int64(2), uint32(0), true)
	f.Add(uint16(0b1010), uint8(2), int8(1), int64(3), uint32(0b100), false)
	f.Add(uint16(0b1110), uint8(1), int8(-2), int64(4), uint32(1), true)
	g := group.MustSharedFor(group.PresetTest64)
	f.Fuzz(func(t *testing.T, wMask uint16, c uint8, nDelta int8, seed int64, nilMask uint32, second bool) {
		var w []int
		for v := 1; v <= 12; v++ {
			if wMask&(1<<(v-1)) != 0 {
				w = append(w, v)
			}
		}
		if len(w) == 0 {
			return
		}
		cfg := bidcode.Config{W: w, C: int(c % 3)}
		cfg.N = max(2, cfg.MaxSharesNeeded()+int(nDelta%3))
		alphas, err := bidcode.Pseudonyms(g.Scalars(), cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		cands := cfg.DegreeCandidates()
		nodes, err := g.Scalars().Nodes(len(alphas), cfg.Sigma())
		if err != nil {
			t.Fatal(err)
		}
		r := ResolverOver(cands, nodes)
		rng := rand.New(rand.NewSource(seed))
		bids := make([]int, cfg.N)
		for i := range bids {
			bids[i] = w[rng.Intn(len(w))]
		}
		exclude := -1
		if second {
			exclude = lowestBidder(bids)
		}
		lambdas := summedLambdas(t, g, cfg, alphas, bids, exclude, rng)
		for k := range lambdas {
			if nilMask&(1<<(k%32)) != 0 {
				lambdas[k] = nil
			}
		}
		checkAgainstScan(t, g, r, cands, alphas, lambdas, fmt.Sprintf("W=%v c=%d n=%d", w, cfg.C, cfg.N))
	})
}
