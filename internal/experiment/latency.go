package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/dmw"
	"dmw/internal/group"
)

// runLatency measures the protocol's end-to-end time under a
// virtual-clock latency model: each communication round completes when
// its slowest message arrives, rounds are sequential within an auction,
// and the m auctions run in parallel. DMW's latency is therefore
// (rounds per auction) x RTT — constant in n for honest runs — while the
// centralized MinWork baseline needs only a request/response pair but a
// trusted center. This quantifies the latency price of decentralization,
// complementing Table 1's message/computation costs.
func runLatency(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "latency",
		Title: "Extension: end-to-end latency under LAN/WAN link models",
	}
	params := group.MustPreset(group.PresetTest64)
	w := []int{1, 2}
	profiles := []struct {
		name string
		rtt  time.Duration
	}{
		{"LAN (0.2ms)", 200 * time.Microsecond},
		{"WAN (40ms)", 40 * time.Millisecond},
	}
	ns := []int{4, 8, 12}
	if cfg.Quick {
		ns = []int{4, 8}
	}

	tab := &Table{
		Title:   "simulated completion time (m = 2 parallel auctions)",
		Headers: []string{"profile", "n", "rounds", "dmw-time", "minwork-time(2 rounds)"},
	}
	pass := true
	for _, prof := range profiles {
		for _, n := range ns {
			delays := make([][]time.Duration, n)
			for i := range delays {
				delays[i] = make([]time.Duration, n)
				for j := range delays[i] {
					if i != j {
						delays[i][j] = prof.rtt / 2 // one-way
					}
				}
			}
			run := dmw.RunConfig{
				Params: params,
				Bid:    bidcode.Config{W: w, C: 0, N: n},
				Seed:   cfg.Seed + int64(n),
				Delays: delays,
			}
			rng := rand.New(rand.NewSource(int64(n) * 31))
			run.TrueBids = make([][]int, n)
			for i := range run.TrueBids {
				run.TrueBids[i] = []int{w[rng.Intn(2)], w[rng.Intn(2)]}
			}
			res, err := dmw.Run(run)
			if err != nil {
				return nil, err
			}
			for _, a := range res.Auctions {
				if a.Aborted {
					return nil, fmt.Errorf("latency run aborted: %s", a.AbortReason)
				}
			}
			dmwTime := res.Stats.VirtualTime()
			minworkTime := prof.rtt // request + response = 2 one-way hops
			tab.AddRow(prof.name, n, res.Stats.Rounds(), dmwTime, minworkTime)
			if dmwTime <= 0 {
				pass = false
			}
			// DMW's latency must stay bounded by a small constant number
			// of rounds (independent of n for honest runs).
			if dmwTime > 10*prof.rtt {
				pass = false
			}
		}
	}
	rep.Tables = append(rep.Tables, tab)
	rep.notef("honest DMW completes in a constant ~5 one-way-delay rounds per auction regardless of n; the latency price of removing the center is a small constant factor, while the message price is the Theta(n) factor of Table 1")
	rep.Pass = pass
	return rep, nil
}
