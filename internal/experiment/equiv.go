package experiment

import (
	"math/rand"
	"strings"

	"dmw/internal/bidcode"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/transport"
)

// randomGame builds a random DMW configuration with truthful types drawn
// from W.
func randomGame(rng *rand.Rand, w []int, c, n, m int, seed int64) dmw.RunConfig {
	cfg := dmw.RunConfig{
		Params: group.MustPreset(group.PresetTest64),
		Bid:    bidcode.Config{W: w, C: c, N: n},
		Seed:   seed,
	}
	cfg.TrueBids = make([][]int, n)
	for i := range cfg.TrueBids {
		cfg.TrueBids[i] = make([]int, m)
		for j := range cfg.TrueBids[i] {
			cfg.TrueBids[i][j] = w[rng.Intn(len(w))]
		}
	}
	return cfg
}

func bidsToInstance(bids [][]int) *sched.Instance {
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, v := range row {
			in.Time[i][j] = int64(v)
		}
	}
	return in
}

// runF1 reproduces Figure 1's mechanism dataflow as a behavioural check:
// the distributed mechanism's allocation and payment functions must
// coincide with centralized MinWork on identical types.
func runF1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "f1",
		Title: "Figure 1: DMW implements MinWork's allocation/payment functions",
	}
	trials := 20
	if cfg.Quick {
		trials = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := &Table{
		Title:   "distributed vs centralized outcome",
		Headers: []string{"trial", "tasks", "alloc-match", "price-match", "payment-match"},
	}
	allMatch := true
	for trial := 0; trial < trials; trial++ {
		game := randomGame(rng, []int{1, 2, 3, 4}, 1, 6, 3, cfg.Seed+int64(trial))
		res, err := dmw.Run(game)
		if err != nil {
			return nil, err
		}
		ref, err := mechanism.MinWork{}.Run(bidsToInstance(game.TrueBids))
		if err != nil {
			return nil, err
		}
		alloc, price, pay := true, true, true
		for j, a := range res.Auctions {
			if a.Aborted || a.Winner != ref.Schedule.Agent[j] {
				alloc = false
			}
			if int64(a.FirstPrice) != ref.FirstPrice[j] || int64(a.SecondPrice) != ref.SecondPrice[j] {
				price = false
			}
		}
		for i := range ref.Payments {
			if res.Outcome.Payments[i] != ref.Payments[i] {
				pay = false
			}
		}
		tab.AddRow(trial, len(res.Auctions), alloc, price, pay)
		allMatch = allMatch && alloc && price && pay
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("every DMW execution reproduced MinWork's allocation, prices and payments: %v", allMatch)
	rep.Pass = allMatch
	return rep, nil
}

// runF2 reproduces Figure 2's message sequence: the recorded protocol
// rounds must follow shares/commitments -> Lambda/Psi -> disclosures ->
// second price, with the payment claims after the auctions.
func runF2(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "f2",
		Title: "Figure 2: message sequence of the distributed auction",
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	game := randomGame(rng, []int{1, 2, 3, 4}, 1, 6, 1, cfg.Seed)
	res, err := dmw.Run(game)
	if err != nil {
		return nil, err
	}
	log := res.RoundLogs[0]
	tab := &Table{Title: "auction 0 round log (agent 0)", Headers: []string{"step", "event"}}
	for i, line := range log {
		tab.AddRow(i+1, line)
	}
	rep.Tables = append(rep.Tables, tab)

	// The expected sequence from Fig. 2, as ordered substrings.
	wantOrder := []string{"bidding", "Lambda/Psi", "first price", "disclosure", "winner identified", "second price"}
	pos := 0
	for _, line := range log {
		if pos < len(wantOrder) && strings.Contains(line, wantOrder[pos]) {
			pos++
		}
	}
	rep.Pass = pos == len(wantOrder)
	rep.notef("observed %d/%d expected protocol steps in order", pos, len(wantOrder))

	// Message-kind counts per phase must match the protocol's shape:
	// shares n(n-1), commitments n(n-1), etc.
	n := int64(game.Bid.N)
	kt := &Table{Title: "message counts by kind (1 task)", Headers: []string{"kind", "count", "expected"}}
	type exp struct {
		kind  string
		count int64
		want  int64
	}
	st := res.Stats
	checks := []exp{
		{"share", st.ByKind(transport.KindShare), n * (n - 1)},
		{"commitments", st.ByKind(transport.KindCommitments), n * (n - 1)},
		{"lambda-psi", st.ByKind(transport.KindLambdaPsi), n * (n - 1)},
		{"payment-claim", st.ByKind(transport.KindPaymentClaim), n * (n - 1)},
	}
	countsOK := true
	for _, c := range checks {
		kt.AddRow(c.kind, c.count, c.want)
		if c.count != c.want {
			countsOK = false
		}
	}
	rep.Tables = append(rep.Tables, kt)
	rep.Pass = rep.Pass && countsOK
	rep.notef("solid arrows (point-to-point shares) and dashed arrows (published messages) both appear with the multiplicities of Fig. 2")
	return rep, nil
}
