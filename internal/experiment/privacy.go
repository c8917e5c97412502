package experiment

import (
	"fmt"
	"math/rand"

	"dmw/internal/bidcode"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/poly"
	"dmw/internal/privacy"
)

// runPriv validates Theorem 10: coalitions of at most c agents recover no
// bid through the e-polynomials, and larger coalitions break lower bids
// last. It also quantifies the f-polynomial side channel (see DESIGN.md).
func runPriv(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "priv",
		Title: "Theorem 10: losing-bid privacy under collusion",
	}
	bcfg := bidcode.Config{W: []int{1, 2, 3, 4}, C: 2, N: 10}
	if err := bcfg.Validate(); err != nil {
		return nil, err
	}
	params := group.MustPreset(group.PresetTest64)
	f, err := field.New(params.Q)
	if err != nil {
		return nil, err
	}
	alphas, err := bidcode.Pseudonyms(f, bcfg.N)
	if err != nil {
		return nil, err
	}

	trials := 40
	if cfg.Quick {
		trials = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	tab := &Table{
		Title:   "fraction of random bids recovered by a k-coalition (c = 2, sigma = 7)",
		Headers: []string{"k", "via-e", "via-f", "wrong-recoveries"},
	}
	pass := true
	for k := 1; k <= 8; k++ {
		recoveredE, recoveredF, wrong := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			y := bcfg.W[rng.Intn(len(bcfg.W))]
			enc, err := bidcode.Encode(bcfg, y, f, rng)
			if err != nil {
				return nil, err
			}
			res, err := privacy.Attack(f, bcfg, enc, alphas[:k])
			if err != nil {
				return nil, err
			}
			if res.ViaE != privacy.NotRecovered {
				recoveredE++
				if res.ViaE != y {
					wrong++
				}
			}
			if res.ViaF != privacy.NotRecovered {
				recoveredF++
				if res.ViaF != y {
					wrong++
				}
			}
		}
		tab.AddRow(k,
			float64(recoveredE)/float64(trials),
			float64(recoveredF)/float64(trials),
			wrong)
		// Theorem 10's claim: no e-side recovery with k <= c.
		if k <= bcfg.C && recoveredE > 0 {
			pass = false
		}
		if wrong > 0 {
			pass = false
		}
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("e-polynomial threshold: bid y needs sigma-y+1 >= c+2 colluders; lower bids need more (Theorem 10 confirmed)")
	rep.notef("f-polynomial side channel: bid y falls to y+1 colluders, so LOW bids are the most exposed — an observed limitation not covered by Theorem 10's analysis")
	rep.Pass = pass
	return rep, nil
}

// runDegres validates Section 2.4's failure analysis: degree resolution
// on too few points falsely reports success with probability ~1/q (the
// paper states 1/p; our exponent field is Z_q — see DESIGN.md).
func runDegres(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "degres",
		Title: "Section 2.4: degree-resolution false-success probability ~ 1/q",
	}
	params := group.MustPreset(group.PresetTiny16)
	f, err := field.New(params.Q)
	if err != nil {
		return nil, err
	}
	q := params.Q.Int64()

	trials := 120_000
	if cfg.Quick {
		trials = 20_000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The nodes and their value slab are reused by every trial; one
	// scratch serves every evaluation.
	var s field.Scratch
	vals := f.Slab(4)
	nodes := make([]poly.Share, 4)
	for i := range nodes {
		nodes[i].Node = f.FromInt64(int64(i + 1))
	}

	hits := 0
	const deg = 5
	for trial := 0; trial < trials; trial++ {
		p, err := poly.NewRandomZeroConst(f, deg, rng)
		if err != nil {
			return nil, err
		}
		// Interpolate with only 4 points: exact reconstruction needs 6,
		// so a zero here is a false success.
		for i := range nodes {
			nodes[i].Value = p.EvalInto(&vals[i], nodes[i].Node, &s)
		}
		v, err := poly.InterpolateAtZero(f, nodes)
		if err != nil {
			return nil, err
		}
		if v.Sign() == 0 {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	expected := 1.0 / float64(q)
	tab := &Table{
		Title:   "false resolution rate (degree 5 polynomial, 4 interpolation points)",
		Headers: []string{"q", "trials", "false-successes", "measured-rate", "1/q"},
	}
	tab.AddRow(q, trials, hits, fmt.Sprintf("%.2e", rate), fmt.Sprintf("%.2e", expected))
	rep.Tables = append(rep.Tables, tab)

	ratio := rate * float64(q)
	rep.notef("measured rate is %.2fx the predicted 1/q", ratio)
	rep.notef("paper states 1/p; the resolution arithmetic lives in the exponent field Z_q, hence 1/q here")
	// Loose statistical gate: expectation ~ trials/q hits.
	rep.Pass = ratio > 0.2 && ratio < 2.5
	return rep, nil
}
