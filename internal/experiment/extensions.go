package experiment

import (
	"math/rand"

	"dmw/internal/mechanism"
	"dmw/internal/oneparam"
	"dmw/internal/sched"
)

// runRelated covers the paper's named future work (Section 5: distribute
// the related-machines mechanism of Archer and Tardos). It validates the
// one-parameter toolkit: the monotone FastestMachine rule with Myerson
// payments is truthful, the makespan-optimal rule is provably
// non-monotone (witness exhibited), and truthfulness costs makespan.
func runRelated(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "related",
		Title: "Extension (paper #5 future work): one-parameter mechanisms for related machines",
	}
	space := []int64{1, 2, 3, 4, 5}
	trials := 40
	if cfg.Quick {
		trials = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 1. FastestMachine + Myerson is truthful.
	truthTab := &Table{
		Title:   "FastestMachine + Myerson payments: misreport gains",
		Headers: []string{"trials", "max-gain", "min-utility"},
	}
	maxGain, minU := int64(0), int64(1<<62)
	for trial := 0; trial < trials; trial++ {
		p := &oneparam.Problem{
			Sizes:     make([]int64, 1+rng.Intn(4)),
			TrueCosts: make([]int64, 2+rng.Intn(3)),
		}
		for j := range p.Sizes {
			p.Sizes[j] = 1 + rng.Int63n(8)
		}
		for i := range p.TrueCosts {
			p.TrueCosts[i] = space[rng.Intn(len(space))]
		}
		gain, _, err := oneparam.CheckTruthful(oneparam.FastestMachine{}, p, space)
		if err != nil {
			return nil, err
		}
		if gain > maxGain {
			maxGain = gain
		}
		pay, s, err := oneparam.MyersonPayments(oneparam.FastestMachine{}, p.Sizes, p.TrueCosts, space)
		if err != nil {
			return nil, err
		}
		for i := range p.TrueCosts {
			if u := oneparam.Utility(pay, s, p.Sizes, p.TrueCosts, i); u < minU {
				minU = u
			}
		}
	}
	truthTab.AddRow(trials, maxGain, minU)

	// 2. OptMakespan is non-monotone: find a witness.
	witTab := &Table{
		Title:   "OptMakespan monotonicity violation (Archer-Tardos motivation)",
		Headers: []string{"agent", "lo-bid", "lo-work", "hi-bid", "hi-work"},
	}
	var witnessFound bool
	for trial := 0; trial < 400 && !witnessFound; trial++ {
		n := 2 + rng.Intn(2)
		m := 2 + rng.Intn(3)
		sizes := make([]int64, m)
		for j := range sizes {
			sizes[j] = 1 + rng.Int63n(6)
		}
		bids := make([]int64, n)
		for i := range bids {
			bids[i] = space[rng.Intn(len(space))]
		}
		for i := 0; i < n && !witnessFound; i++ {
			v, err := oneparam.CheckMonotone(oneparam.OptMakespan{}, sizes, bids, i, space)
			if err != nil {
				return nil, err
			}
			if v != nil {
				witTab.AddRow(v.Agent, v.LoBid, v.LoWork, v.HiBid, v.HiWork)
				witnessFound = true
			}
		}
	}

	// 3. The makespan price of truthfulness: FastestMachine vs LPT.
	costTab := &Table{
		Title:   "makespan: truthful FastestMachine vs non-truthful LPT (identical machines)",
		Headers: []string{"n", "tasks", "fastest-makespan", "lpt-makespan"},
	}
	for _, n := range []int{2, 4, 8} {
		sizes := make([]int64, n)
		bids := make([]int64, n)
		for j := range sizes {
			sizes[j] = 5
		}
		for i := range bids {
			bids[i] = 1
		}
		span := func(a oneparam.Allocation) int64 {
			s, err := a.Allocate(sizes, bids)
			if err != nil {
				return -1
			}
			in := sched.NewInstance(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					in.Time[i][j] = bids[i] * sizes[j]
				}
			}
			return s.Makespan(in)
		}
		costTab.AddRow(n, n, span(oneparam.FastestMachine{}), span(oneparam.LPTGreedy{}))
	}

	rep.Tables = append(rep.Tables, truthTab, witTab, costTab)
	rep.notef("monotone rule truthful (max gain %d) with voluntary participation (min utility %d)", maxGain, minU)
	rep.notef("OptMakespan non-monotonicity witness found: %v — no payments can make it truthful", witnessFound)
	rep.notef("truthful-but-degenerate FastestMachine pays an Theta(n) makespan factor, the gap the Archer-Tardos program closes")
	rep.Pass = maxGain == 0 && minU >= 0 && witnessFound
	return rep, nil
}

// runTwoRand validates the related-work randomized mechanism for two
// machines (Nisan-Ronen): universally truthful, expected makespan within
// 7/4 of optimal.
func runTwoRand(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "tworand",
		Title: "Extension (related work): randomized biased mechanism for two machines",
	}
	trials := 60
	if cfg.Quick {
		trials = 15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := mechanism.TwoMachineBiased{}

	worst := 0.0
	truthViolations := 0
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(3)
		truth := sched.Uniform(rng, 2, m, 1, 9)
		num, den, err := b.ExpectedMakespan(truth)
		if err != nil {
			return nil, err
		}
		_, opt, err := sched.OptimalMakespan(truth)
		if err != nil {
			return nil, err
		}
		if r := float64(num) / float64(den) / float64(opt); r > worst {
			worst = r
		}
		// Spot-check universal truthfulness on one random coin vector.
		coins := make([]bool, m)
		for j := range coins {
			coins[j] = rng.Intn(2) == 0
		}
		base, err := b.RunWithCoins(truth, coins)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			u0 := base.ScaledUtility(truth, i)
			for j := 0; j < m; j++ {
				trialIn := truth.Clone()
				trialIn.Time[i][j] = 1 + rng.Int63n(9)
				out, err := b.RunWithCoins(trialIn, coins)
				if err != nil {
					return nil, err
				}
				if out.ScaledUtility(truth, i) > u0 {
					truthViolations++
				}
			}
		}
	}
	tab := &Table{
		Title:   "biased randomized mechanism (beta = 4/3)",
		Headers: []string{"instances", "worst-expected-ratio", "bound-7/4", "truthfulness-violations"},
	}
	tab.AddRow(trials, worst, 1.75, truthViolations)
	rep.Tables = append(rep.Tables, tab)
	rep.notef("universally truthful (0 violations) and within the 7/4 expected-approximation bound (worst %.3f)", worst)
	rep.Pass = worst <= 1.75+1e-9 && truthViolations == 0
	return rep, nil
}
