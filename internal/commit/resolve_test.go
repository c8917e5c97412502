package commit

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
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
	got, gotErr := r.Resolve(g, lambdas, nil)
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
		r, err := NewResolver(g.Scalars(), cands, alphas)
		if err != nil {
			t.Fatal(err)
		}
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
			if d, err := r.Resolve(g, lambdas, nil); err != nil {
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
	r, err := NewResolver(g.Scalars(), cfg.DegreeCandidates(), alphas)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := summedLambdas(t, g, cfg, alphas, []int{1, 3, 5, 2}, -1, rand.New(rand.NewSource(3)))
	checkAgainstScan(t, g, r, cfg.DegreeCandidates(), alphas, lambdas, "n=4")
	if _, err := r.Resolve(g, lambdas, nil); err == nil || err.Error() !=
		"candidate degree 4 needs 5 nodes, have 4 agents: poly: no candidate degree resolves" {
		t.Fatalf("err = %v", err)
	}
}

// resolveSetup is a first-price vector over W = {1..6}, n = 7, with every
// agent present.
func resolveSetup(t *testing.T) (*group.Group, *Resolver, []*big.Int) {
	t.Helper()
	g := group.MustSharedFor(group.PresetTest64)
	cfg := bidcode.Config{W: []int{1, 2, 3, 4, 5, 6}, C: 0, N: 7}
	alphas, err := bidcode.Pseudonyms(g.Scalars(), cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(g.Scalars(), cfg.DegreeCandidates(), alphas)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := summedLambdas(t, g, cfg, alphas, []int{4, 2, 6, 3, 2, 5, 4}, -1, rand.New(rand.NewSource(5)))
	return g, r, lambdas
}

// resolveConcurrently has n goroutines resolve their vectors through one
// SharedResolutions, all metered by c, and returns each one's result.
func resolveConcurrently(g *group.Group, r *Resolver, s *SharedResolutions, c *group.Counter, vecs [][]*big.Int) ([]int, []error) {
	degs, errs := make([]int, len(vecs)), make([]error, len(vecs))
	var wg sync.WaitGroup
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			degs[i], errs[i] = r.Resolve(g.WithCounter(c), vecs[i], s)
		}(i)
	}
	wg.Wait()
	return degs, errs
}

// TestSharedResolutionsComputeOnce: n agents resolving the same broadcast
// objects run one bisection between them.
func TestSharedResolutionsComputeOnce(t *testing.T) {
	g, r, lambdas := resolveSetup(t)
	var alone group.Counter
	want, err := r.Resolve(g.WithCounter(&alone), lambdas, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	vecs := make([][]*big.Int, n)
	for i := range vecs {
		vecs[i] = append([]*big.Int(nil), lambdas...) // each agent's own slice, same objects
	}
	var s SharedResolutions
	var c group.Counter
	degs, errs := resolveConcurrently(g, r, &s, &c, vecs)
	for i := range degs {
		if errs[i] != nil || degs[i] != want {
			t.Errorf("agent %d: (%d, %v), want (%d, nil)", i, degs[i], errs[i], want)
		}
	}
	if c.MultiExps() != alone.MultiExps() || c.MultiExpTerms() != alone.MultiExpTerms() {
		t.Errorf("%d agents ran %d multi-exps (%d terms), one resolution is %d (%d)",
			n, c.MultiExps(), c.MultiExpTerms(), alone.MultiExps(), alone.MultiExpTerms())
	}
	if len(s.entries) != 1 {
		t.Errorf("%d entries for one vector", len(s.entries))
	}
}

// TestSharedResolutionsKeyOnIdentity: equal values in distinct objects,
// as an equivocating medium or a re-decoded payload would hand over, and
// vectors whose nil entries differ each get an entry and a result of
// their own.
func TestSharedResolutionsKeyOnIdentity(t *testing.T) {
	g, r, lambdas := resolveSetup(t)
	copies := make([]*big.Int, len(lambdas))
	for k, v := range lambdas {
		copies[k] = new(big.Int).Set(v)
	}
	holed := append([]*big.Int(nil), lambdas...)
	holed[2] = nil
	vecs := [][]*big.Int{lambdas, copies, holed, lambdas, copies, holed}

	var s SharedResolutions
	var c group.Counter
	degs, errs := resolveConcurrently(g, r, &s, &c, vecs)
	if len(s.entries) != 3 {
		t.Fatalf("%d entries for three distinct vectors", len(s.entries))
	}
	var alone group.Counter
	want, _ := r.Resolve(g.WithCounter(&alone), lambdas, nil)
	for i := range vecs {
		if vecs[i][2] == nil {
			if errs[i] == nil || errs[i].Error() != "missing resolution input from agent 2: poly: no candidate degree resolves" {
				t.Errorf("receiver %d (nil at 2): err = %v", i, errs[i])
			}
		} else if errs[i] != nil || degs[i] != want {
			t.Errorf("receiver %d: (%d, %v), want (%d, nil)", i, degs[i], errs[i], want)
		}
	}
	// The two full vectors resolve separately; the holed one probes nothing
	// past its usable prefix.
	var holedAlone group.Counter
	_, _ = r.Resolve(g.WithCounter(&holedAlone), holed, nil)
	if want := 2*alone.MultiExps() + holedAlone.MultiExps(); c.MultiExps() != want {
		t.Errorf("multi-exps = %d, want %d (one bisection per distinct vector)", c.MultiExps(), want)
	}
}

// TestSharedResolutionsShareErrors: a failed resolution reaches every
// waiter as the same error value.
func TestSharedResolutionsShareErrors(t *testing.T) {
	g, r, lambdas := resolveSetup(t)
	holed := append([]*big.Int(nil), lambdas...)
	holed[0] = nil
	vecs := make([][]*big.Int, 6)
	for i := range vecs {
		vecs[i] = holed
	}
	var s SharedResolutions
	_, errs := resolveConcurrently(g, r, &s, new(group.Counter), vecs)
	for i, err := range errs {
		if !errors.Is(err, poly.ErrDegreeUnresolved) {
			t.Fatalf("waiter %d: err = %v", i, err)
		}
		if err != errs[0] {
			t.Errorf("waiter %d got its own error %p, want the shared %p", i, err, errs[0])
		}
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
		r, err := NewResolver(g.Scalars(), cands, alphas)
		if err != nil {
			t.Fatal(err)
		}
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
