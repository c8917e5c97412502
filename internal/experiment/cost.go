package experiment

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/centralnet"
	"dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/relaynet"
)

// costRun executes one honest DMW run and returns the result.
func costRun(params *group.Params, w []int, c, n, m int, seed int64, countOps bool) (*dmw.Result, error) {
	cfg := dmw.RunConfig{
		Params:   params,
		Bid:      bidcode.Config{W: w, C: c, N: n},
		Seed:     seed,
		CountOps: countOps,
	}
	rng := rand.New(rand.NewSource(seed))
	cfg.TrueBids = make([][]int, n)
	for i := range cfg.TrueBids {
		cfg.TrueBids[i] = make([]int, m)
		for j := range cfg.TrueBids[i] {
			cfg.TrueBids[i][j] = w[rng.Intn(len(w))]
		}
	}
	res, err := dmw.Run(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range res.Auctions {
		if a.Aborted {
			return nil, fmt.Errorf("experiment: honest auction %d aborted: %s", a.Task, a.AbortReason)
		}
	}
	return res, nil
}

// minWorkMessages is the centralized baseline of Theorem 11's remark:
// each of n agents transmits a bid of m values to the mechanism,
// Theta(mn) point-to-point messages in total.
func minWorkMessages(n, m int) int64 { return int64(n) * int64(m) }

// minWorkOps is the centralized computational baseline of Theorem 12's
// remark: scanning m vectors of n bids for first/second prices plus
// summing second prices, Theta(mn).
func minWorkOps(n, m int) int64 { return int64(n)*int64(m) + int64(m) }

// runT1Comm reproduces Table 1's communication column: DMW's measured
// point-to-point message count must scale as Theta(mn^2) against
// MinWork's Theta(mn).
func runT1Comm(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "t1comm",
		Title: "Table 1 (communication): MinWork Theta(mn) vs DMW Theta(mn^2)",
	}
	params := group.MustPreset(group.PresetTest64)
	w := []int{1, 2}

	ns := []int{4, 6, 8, 12, 16}
	ms := []int{1, 2, 4, 8}
	if cfg.Quick {
		ns = []int{4, 8, 12}
		ms = []int{1, 2, 4}
	}

	// Sweep n at fixed m.
	const fixedM = 2
	nTab := &Table{
		Title:   fmt.Sprintf("messages vs n (m = %d)", fixedM),
		Headers: []string{"n", "minwork-msgs", "dmw-msgs", "dmw-bytes"},
	}
	var xs, ys []float64
	for _, n := range ns {
		res, err := costRun(params, w, 0, n, fixedM, cfg.Seed+int64(n), false)
		if err != nil {
			return nil, err
		}
		nTab.AddRow(n, minWorkMessages(n, fixedM), res.Stats.Messages(), res.Stats.Bytes())
		xs = append(xs, float64(n))
		ys = append(ys, float64(res.Stats.Messages()))
	}
	fitN, err := FitPowerLaw(xs, ys)
	if err != nil {
		return nil, err
	}

	// Sweep m at fixed n.
	const fixedN = 8
	mTab := &Table{
		Title:   fmt.Sprintf("messages vs m (n = %d)", fixedN),
		Headers: []string{"m", "minwork-msgs", "dmw-msgs", "dmw-bytes"},
	}
	xs, ys = nil, nil
	for _, m := range ms {
		res, err := costRun(params, w, 0, fixedN, m, cfg.Seed+100+int64(m), false)
		if err != nil {
			return nil, err
		}
		mTab.AddRow(m, minWorkMessages(fixedN, m), res.Stats.Messages(), res.Stats.Bytes())
		xs = append(xs, float64(m))
		ys = append(ys, float64(res.Stats.Messages()))
	}
	fitM, err := FitPowerLaw(xs, ys)
	if err != nil {
		return nil, err
	}

	// Measured over real TCP: the centralized auctioneer (centralnet)
	// against the distributed relay deployment (relaynet), same machine
	// and same workload.
	tcpTab, err := measureTCPDeployments(cfg, params, w)
	if err != nil {
		return nil, err
	}

	rep.Tables = append(rep.Tables, nTab, mTab, tcpTab)
	rep.notef("fitted message exponent vs n: %.2f (paper: 2, R2=%.3f)", fitN.Exponent, fitN.R2)
	rep.notef("fitted message exponent vs m: %.2f (paper: 1, R2=%.3f)", fitM.Exponent, fitM.R2)
	rep.notef("MinWork columns: analytic Theta(mn) count per Theorem 11's remark; the TCP table measures both deployments on loopback")
	rep.Pass = fitN.Exponent > 1.6 && fitN.Exponent < 2.4 &&
		fitM.Exponent > 0.7 && fitM.Exponent < 1.3
	return rep, nil
}

// measureTCPDeployments runs the centralized auctioneer and the
// distributed relay on loopback TCP with the same workload and reports
// the measured message counts.
func measureTCPDeployments(cfg Config, params *group.Params, w []int) (*Table, error) {
	const n, m = 6, 2
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	bids := make([][]int, n)
	for i := range bids {
		bids[i] = make([]int, m)
		for j := range bids[i] {
			bids[i][j] = w[rng.Intn(len(w))]
		}
	}

	// Centralized deployment.
	lnC, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := centralnet.Serve(lnC, n, m)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := make([]int64, m)
			for j, v := range bids[i] {
				row[j] = int64(v)
			}
			_, _ = centralnet.SubmitBids(srv.Addr().String(), i, row, 30*time.Second)
		}(i)
	}
	wg.Wait()
	if err := srv.Wait(); err != nil {
		return nil, err
	}

	// Distributed deployment.
	lnD, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	relay, err := relaynet.Serve(lnD, n)
	if err != nil {
		return nil, err
	}
	defer relay.Close()
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := relaynet.Dial(relay.Addr().String(), i, relaynet.WithRoundTimeout(60*time.Second))
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			_, errs[i] = dmw.RunAgentSession(dmw.SessionConfig{
				Params: params,
				Bid:    bidcode.Config{W: w, C: 0, N: n},
				MyBids: bids[i],
				Seed:   cfg.Seed + 901,
			}, i, cl)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	tab := &Table{
		Title:   fmt.Sprintf("measured on loopback TCP (n = %d, m = %d)", n, m),
		Headers: []string{"deployment", "messages", "bytes"},
	}
	tab.AddRow("centralized auctioneer", srv.Messages(), "-")
	tab.AddRow("distributed relay (DMW)", relay.Stats().Messages(), relay.Stats().Bytes())
	return tab, nil
}

// runT1Comp reproduces Table 1's computation column: per-agent group
// operations scale as Theta(mn^2) and wall time grows with log p.
func runT1Comp(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "t1comp",
		Title: "Table 1 (computation): MinWork Theta(mn) vs DMW O(mn^2 log p)",
	}
	params := group.MustPreset(group.PresetTest64)
	w := []int{1, 2}

	ns := []int{4, 6, 8, 12, 16, 24}
	ms := []int{1, 2, 4, 8}
	if cfg.Quick {
		ns = []int{4, 8, 16}
		ms = []int{1, 2, 4}
	}

	avgOps := func(res *dmw.Result) float64 {
		var total uint64
		for _, c := range res.AgentOps {
			total += c.Exp() + c.Mul()
		}
		return float64(total) / float64(len(res.AgentOps))
	}

	const fixedM = 2
	nTab := &Table{
		Title:   fmt.Sprintf("group ops per agent vs n (m = %d)", fixedM),
		Headers: []string{"n", "minwork-ops", "dmw-ops/agent"},
	}
	var xs, ys []float64
	for _, n := range ns {
		res, err := costRun(params, w, 0, n, fixedM, cfg.Seed+200+int64(n), true)
		if err != nil {
			return nil, err
		}
		ops := avgOps(res)
		nTab.AddRow(n, minWorkOps(n, fixedM), ops)
		xs = append(xs, float64(n))
		ys = append(ys, ops)
	}
	fitN, err := FitPowerLaw(xs, ys)
	if err != nil {
		return nil, err
	}

	const fixedN = 8
	mTab := &Table{
		Title:   fmt.Sprintf("group ops per agent vs m (n = %d)", fixedN),
		Headers: []string{"m", "minwork-ops", "dmw-ops/agent"},
	}
	xs, ys = nil, nil
	for _, m := range ms {
		res, err := costRun(params, w, 0, fixedN, m, cfg.Seed+300+int64(m), true)
		if err != nil {
			return nil, err
		}
		ops := avgOps(res)
		mTab.AddRow(m, minWorkOps(fixedN, m), ops)
		xs = append(xs, float64(m))
		ys = append(ys, ops)
	}
	fitM, err := FitPowerLaw(xs, ys)
	if err != nil {
		return nil, err
	}

	// log p dependence: wall time across parameter sizes at fixed n, m.
	presets := []string{group.PresetTest64, group.PresetDemo128, group.PresetSim256, group.PresetSecure512}
	if cfg.Quick {
		presets = presets[:3]
	}
	pTab := &Table{
		Title:   "wall time vs parameter size (n = 6, m = 2)",
		Headers: []string{"preset", "p-bits", "time-ms"},
	}
	var times []float64
	for _, name := range presets {
		pr := group.MustPreset(name)
		// Best of three runs: single-shot wall times are noisy.
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := costRun(pr, w, 0, 6, 2, cfg.Seed+400, false); err != nil {
				return nil, err
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		pTab.AddRow(name, pr.P.BitLen(), float64(best.Microseconds())/1000.0)
		times = append(times, best.Seconds())
	}
	growing := times[len(times)-1] > times[0]

	rep.Tables = append(rep.Tables, nTab, mTab, pTab)
	rep.notef("fitted ops exponent vs n: %.2f (paper: 2, R2=%.3f; the Gamma cache halves the quadratic verification term, so the linear share-handling terms depress the fit at small n)", fitN.Exponent, fitN.R2)
	rep.notef("fitted ops exponent vs m: %.2f (paper: 1, R2=%.3f)", fitM.Exponent, fitM.R2)
	rep.notef("wall time grows with log p (largest/smallest preset: %.1fx)", times[len(times)-1]/times[0])
	rep.Pass = fitN.Exponent > 1.4 && fitN.Exponent < 2.6 &&
		fitM.Exponent > 0.7 && fitM.Exponent < 1.3 && growing
	return rep, nil
}
