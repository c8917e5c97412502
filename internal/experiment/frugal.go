package experiment

import (
	"math/rand"

	"dmw/internal/mechanism"
	"dmw/internal/sched"
)

// runFrugal studies the payment side of the mechanism, the "frugality"
// theme of the paper's related work (Archer-Tardos, "Frugal path
// mechanisms"): how much does the second-price rule overpay relative to
// the winners' true costs, and how quickly does competition erode the
// overpayment? For each n we measure
//
//	overpayment(n) = sum of payments / sum of winners' true costs
//
// over random instances. The ratio is >= 1 by voluntary participation and
// must fall toward 1 as n grows (more agents -> tighter second prices).
func runFrugal(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "frugal",
		Title: "Extension (related work): frugality — overpayment vs competition",
	}
	trials := 120
	if cfg.Quick {
		trials = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := &Table{
		Title:   "second-price overpayment factor (m = 4, times uniform in [1,10])",
		Headers: []string{"n", "mean-overpayment", "max-overpayment"},
	}
	var means []float64
	pass := true
	for _, n := range []int{2, 4, 8, 16, 32} {
		var sum, max float64
		count := 0
		for trial := 0; trial < trials; trial++ {
			in := sched.Uniform(rng, n, 4, 1, 10)
			out, err := mechanism.MinWork{}.Run(in)
			if err != nil {
				return nil, err
			}
			var paid, cost int64
			for i := 0; i < n; i++ {
				paid += out.Payments[i]
			}
			for j := 0; j < in.Tasks(); j++ {
				cost += in.Time[out.Schedule.Agent[j]][j]
			}
			r := float64(paid) / float64(cost)
			if r < 1 {
				pass = false // would violate voluntary participation
			}
			sum += r
			if r > max {
				max = r
			}
			count++
		}
		mean := sum / float64(count)
		means = append(means, mean)
		tab.AddRow(n, mean, max)
	}
	// Overpayment must decline with competition.
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]+0.01 {
			pass = false
		}
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("overpayment factor falls from %.2f (n=2) to %.2f (n=32): competition substitutes for frugality-aware design", means[0], means[len(means)-1])
	rep.Pass = pass
	return rep, nil
}
