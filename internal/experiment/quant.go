package experiment

import (
	"math/rand"

	"dmw/internal/bidcode"
	"dmw/internal/mechanism"
	"dmw/internal/sched"
)

// runQuant quantifies the cost of DMW's discrete-bid design constraint.
// The degree encoding forces bids into a small published set W ("the bid
// value must be discrete and from a known set"); real processing times
// are continuous. We draw continuous costs, discretize them with the
// round-up rule of bidcode.NearestBid, and compare the MinWork outcome on
// the discretized types against the outcome on the raw types: how often
// the allocation changes, and how much total work is lost.
func runQuant(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "quant",
		Title: "Design constraint: cost of discretizing bids into W",
	}
	trials := 200
	if cfg.Quick {
		trials = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// scale embeds continuous values into int64 (3 decimal digits).
	const scale = 1000
	tab := &Table{
		Title:   "MinWork on continuous vs W-discretized types (n = 6, m = 4)",
		Headers: []string{"|W|", "alloc-changed", "mean-work-overhead", "max-work-overhead"},
	}
	pass := true
	for _, k := range []int{2, 4, 8, 16} {
		w := make([]int, k)
		for i := range w {
			w[i] = i + 1
		}
		bcfg := bidcode.Config{W: w, C: 0, N: 6}
		changed := 0
		var sumOver, maxOver float64
		for trial := 0; trial < trials; trial++ {
			n, m := 6, 4
			cont := sched.NewInstance(n, m)
			disc := sched.NewInstance(n, m)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					// Continuous cost in (0, w_k].
					v := rng.Float64() * float64(k)
					if v <= 0.001 {
						v = 0.001
					}
					cont.Time[i][j] = int64(v * scale)
					if cont.Time[i][j] == 0 {
						cont.Time[i][j] = 1
					}
					disc.Time[i][j] = int64(bcfg.NearestBid(int64(v + 0.999999)))
				}
			}
			outC, err := mechanism.MinWork{}.Run(cont)
			if err != nil {
				return nil, err
			}
			outD, err := mechanism.MinWork{}.Run(disc)
			if err != nil {
				return nil, err
			}
			alloc := false
			for j := 0; j < m; j++ {
				if outC.Schedule.Agent[j] != outD.Schedule.Agent[j] {
					alloc = true
				}
			}
			if alloc {
				changed++
			}
			// Work overhead: execute the discretized allocation at the
			// CONTINUOUS (true) costs and compare with the continuous
			// allocation's work.
			workC := outC.Schedule.TotalWork(cont)
			var workD int64
			for j, agent := range outD.Schedule.Agent {
				workD += cont.Time[agent][j]
			}
			over := float64(workD-workC) / float64(workC)
			sumOver += over
			if over > maxOver {
				maxOver = over
			}
			if over < 0 {
				pass = false // discretization can never beat the optimum
			}
		}
		tab.AddRow(k, float64(changed)/float64(trials), sumOver/float64(trials), maxOver)
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("finer bid sets shrink both allocation distortion and work overhead; the protocol pays for them with larger sigma (see the ablation benches)")
	rep.Pass = pass
	return rep, nil
}
