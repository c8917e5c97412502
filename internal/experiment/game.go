package experiment

import (
	"math/rand"

	"dmw/internal/dmw"
	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/strategy"
)

// runTruth validates Theorem 2 (MinWork is truthful): across random
// instances, no agent improves its utility by any single-task misreport.
func runTruth(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "truth",
		Title: "Theorem 2: MinWork is truthful (misreport never gains)",
	}
	trials := 60
	if cfg.Quick {
		trials = 15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	candidates := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tab := &Table{
		Title:   "best deviation gain per instance (all agents, all single-task misreports)",
		Headers: []string{"trials", "agents-checked", "max-gain", "positive-gains"},
	}
	maxGain := int64(0)
	positives := 0
	checked := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		truth := sched.Uniform(rng, n, m, 1, 10)
		for i := 0; i < n; i++ {
			gain, _, err := mechanism.DeviationGain(mechanism.MinWork{}, truth, i, candidates)
			if err != nil {
				return nil, err
			}
			checked++
			if gain > maxGain {
				maxGain = gain
			}
			if gain > 0 {
				positives++
			}
		}
	}
	tab.AddRow(trials, checked, maxGain, positives)
	rep.Tables = append(rep.Tables, tab)
	rep.notef("paper claims dominant-strategy truthfulness; measured max gain = %d over %d agent-instances", maxGain, checked)
	rep.Pass = maxGain == 0 && positives == 0
	return rep, nil
}

// gameWithDeviation runs the standard 6-agent, 2-task game with one agent
// deviating.
func gameWithDeviation(seed int64, deviator int, h *strategy.Hooks) (*dmw.Result, dmw.RunConfig, error) {
	rng := rand.New(rand.NewSource(seed))
	game := randomGame(rng, []int{1, 2, 3, 4}, 1, 6, 2, seed)
	if h != nil {
		game.Strategies = make([]*strategy.Hooks, game.Bid.N)
		game.Strategies[deviator] = h
	}
	res, err := dmw.Run(game)
	return res, game, err
}

// runFaith validates Theorems 3-5 (faithfulness): for every deviation in
// the catalog, the deviator's utility never exceeds its utility under the
// suggested strategy.
func runFaith(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "faith",
		Title: "Theorems 3-5: DMW is faithful (no deviation increases utility)",
	}
	games := 4
	if cfg.Quick {
		games = 2
	}
	tab := &Table{
		Title:   "deviation catalog: utility delta (deviating - suggested), worst case over games and deviators",
		Headers: []string{"strategy", "worst-delta", "runs"},
	}
	pass := true
	catalog := strategy.Catalog([]int{1, 2, 3, 4}, 6, 0)
	for _, proto := range catalog {
		worst := int64(-1 << 62)
		runs := 0
		for g := 0; g < games; g++ {
			seed := cfg.Seed + int64(g)*17
			honest, _, err := gameWithDeviation(seed, 0, nil)
			if err != nil {
				return nil, err
			}
			for _, deviator := range []int{0, 3} {
				h := strategy.Catalog([]int{1, 2, 3, 4}, 6, deviator)[indexOf(catalog, proto)]
				res, _, err := gameWithDeviation(seed, deviator, h)
				if err != nil {
					return nil, err
				}
				delta := res.Utilities[deviator] - honest.Utilities[deviator]
				if delta > worst {
					worst = delta
				}
				if delta > 0 {
					pass = false
				}
				runs++
			}
		}
		tab.AddRow(proto.Label(), worst, runs)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("ex post Nash check: every catalog deviation yields delta <= 0")
	rep.Pass = pass
	return rep, nil
}

func indexOf(catalog []*strategy.Hooks, h *strategy.Hooks) int {
	for i, c := range catalog {
		if c.Name == h.Name {
			return i
		}
	}
	return 0
}

// runSVP validates Theorems 6-9 (strong voluntary participation): honest
// agents never realize negative utility, whatever a deviator does.
func runSVP(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "svp",
		Title: "Theorems 6-9: strong voluntary participation (honest utility >= 0)",
	}
	games := 4
	if cfg.Quick {
		games = 2
	}
	tab := &Table{
		Title:   "minimum honest-agent utility under each deviation",
		Headers: []string{"strategy", "min-honest-utility", "runs"},
	}
	pass := true
	for _, proto := range strategy.Catalog([]int{1, 2, 3, 4}, 6, 0) {
		minU := int64(1 << 62)
		runs := 0
		for g := 0; g < games; g++ {
			seed := cfg.Seed + 31 + int64(g)*13
			for _, deviator := range []int{0, 4} {
				h := strategy.Catalog([]int{1, 2, 3, 4}, 6, deviator)[indexOfName(proto.Name)]
				res, _, err := gameWithDeviation(seed, deviator, h)
				if err != nil {
					return nil, err
				}
				for i, u := range res.Utilities {
					if i == deviator {
						continue
					}
					if u < minU {
						minU = u
					}
					if u < 0 {
						pass = false
					}
				}
				runs++
			}
		}
		tab.AddRow(proto.Label(), minU, runs)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("suggested-strategy agents never incur a loss (Definition 10)")
	rep.Pass = pass
	return rep, nil
}

func indexOfName(name string) int {
	for i, c := range strategy.Catalog([]int{1, 2}, 3, 0) {
		if c.Name == name {
			return i
		}
	}
	return 0
}
