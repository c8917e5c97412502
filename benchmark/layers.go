package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmw"
	"dmw/internal/audit"
	"dmw/internal/commit"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/journal"
	"dmw/internal/obs"
	"dmw/internal/poly"
	"dmw/internal/replica"
	"dmw/internal/server"
	"dmw/internal/tenant"
	"dmw/internal/transport"
	"dmw/internal/wire"
)

// counters is one reading of the stack's own metric surfaces: every
// replica's Server.WriteMetrics summed by series, plus the gateway's
// /metrics (dmwgw_* series only; its dmwd_* rollup would double count).
type counters map[string]float64

func parseExposition(dst counters, text io.Reader, keep func(series string) bool) {
	sc := bufio.NewScanner(text)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || !keep(line[:i]) {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			dst[line[:i]] += v
		}
	}
}

func readCounters(st *stack, t *target) counters {
	c := counters{}
	scalars := func(prefix string) func(string) bool {
		return func(s string) bool { return strings.HasPrefix(s, prefix) && !strings.Contains(s, "_bucket{") }
	}
	var buf bytes.Buffer
	for _, srv := range st.servers {
		buf.Reset()
		srv.WriteMetrics(&buf)
		parseExposition(c, &buf, scalars("dmwd_"))
	}
	if st.gw != nil {
		if status, data, err := t.roundTrip(http.MethodGet, st.gwURL+"/metrics", nil, ""); err == nil && status == http.StatusOK {
			parseExposition(c, bytes.NewReader(data), scalars("dmwgw_"))
		}
	}
	return c
}

// ratio is a/b, or 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeIt reports fn's per-call wall time in nanoseconds: the median of five
// batches sized to fill budget between them. Single-threaded callers get
// cpu time to within scheduler noise.
func timeIt(budget time.Duration, fn func()) float64 {
	fn() // warm caches and lazily built state
	t0 := time.Now()
	probe := 0
	for time.Since(t0) < budget/20 || probe == 0 {
		fn()
		probe++
	}
	per := time.Since(t0) / time.Duration(probe)
	iters := max(1, int(budget/5/max(per, 1)))
	batches := make([]float64, 5)
	for b := range batches {
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(iters)
	}
	return median(batches)
}

// layerSet collects per-layer metrics as they are measured.
type layerSet struct {
	out    map[string]stat
	budget time.Duration // per function-level measurement
	errs   []error
}

func (ls *layerSet) set(name string, v float64) {
	ls.out[name] = scalar(unitOf(name), v)
}

// ns/us/ms record a duration given in nanoseconds under the metric's unit.
func (ls *layerSet) dur(name string, nanos float64) {
	switch unitOf(name) {
	case "ns":
		ls.set(name, nanos)
	case "us":
		ls.set(name, nanos/1e3)
	case "ms":
		ls.set(name, nanos/1e6)
	default:
		panic("dur: " + name + " is not a time metric")
	}
}

func (ls *layerSet) time(name string, fn func()) { ls.dur(name, timeIt(ls.budget, fn)) }

// timeErr is time for a call that can fail; the first failure is recorded
// and the (then meaningless) timing still reported.
func (ls *layerSet) timeErr(name string, fn func() error) {
	var first error
	ls.time(name, func() {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	})
	ls.fail(name, first)
}

func (ls *layerSet) fail(what string, err error) {
	if err != nil {
		ls.errs = append(ls.errs, fmt.Errorf("%s: %w", what, err))
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric " + name + " is not in the catalogue")
}

// layerMetrics fills out with every per-layer metric: the ones read off the
// measured windows and the stack's counters, then the function-level ones
// from the probe fleet and the layer replay. A layer that cannot be measured
// reads 0 and its failure is part of the returned error.
func layerMetrics(out map[string]stat, cfg runConfig, st *stack, tgt *target, wins []*window, before, after counters, rec *obs.Recorder) error {
	ls := &layerSet{out: out, budget: max(cfg.replayBudget()/100, time.Millisecond)}
	for _, m := range perLayer {
		ls.set(m.Name, 0)
	}
	windowLayers(ls, cfg, tgt, wins, before, after)

	// The probe is a two-replica fleet of the workload's shape with nothing
	// else running on it. The fleet workloads reuse their own (now idle)
	// stack; the proto workloads boot one so the serving-stack layers are
	// priced at their shape too.
	probe := st
	if !cfg.w.Fleet {
		pw := cfg.w
		pw.Fleet = true
		pw.ResultTTL = time.Minute // probe jobs are read back at leisure
		var err error
		if probe, err = bootStack(pw, cfg.procs, cfg.tmpRoot); err != nil {
			ls.fail("probe fleet", err)
			probe = nil
		} else {
			defer probe.close()
		}
	}
	g, err := group.New(st.params)
	if err != nil {
		return err
	}
	rp := replayLayers(ls, cfg, g, rec)
	if probe != nil {
		ptgt := newTarget(probe, &plan{}, cfg.procs)
		defer ptgt.close()
		probeLayers(ls, cfg, probe, ptgt, g)
	}
	if rp != nil {
		functionLayers(ls, cfg, g, rp)
	}
	storageLayers(ls, cfg)
	return errors.Join(ls.errs...)
}

// windowLayers derives the metrics that come from the measured windows:
// client-side latencies by op kind, the server's own job decomposition,
// counter differences across the windows, and runtime totals.
func windowLayers(ls *layerSet, cfg runConfig, tgt *target, wins []*window, before, after counters) {
	var all []sample
	for _, w := range wins {
		for _, s := range w.samples {
			if w.sliceOf(s.end) >= 0 {
				all = append(all, s)
			}
		}
	}
	lat := func(sel kindSet, p float64) float64 {
		var v []float64
		for _, s := range all {
			if s.ok && sel.has(s.kind) {
				v = append(v, s.latencyMS())
			}
		}
		sort.Float64s(v)
		return percentile(v, p)
	}
	attempted, failed := 0, 0
	var lags, waits, runs []float64
	for _, s := range all {
		attempted++
		if !s.ok {
			failed++
		}
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
		if s.ok && s.kind == opJob {
			waits = append(waits, s.queueWaitMS)
			runs = append(runs, s.runMS)
		}
	}
	sort.Float64s(lags)
	reads := kinds(opView, opTranscript)
	ls.set("client.failed_share", ratio(float64(failed), float64(attempted)))
	ls.set("client.op_latency_p90_ms", lat(kinds(opJob), 0.90))
	ls.set("client.op_latency_p99_ms", lat(kinds(opJob), 0.99))
	ls.set("client.read_latency_p50_ms", lat(reads, 0.50))
	ls.set("client.read_latency_p90_ms", lat(reads, 0.90))
	ls.set("client.sched_lag_p99_ms", percentile(lags, 0.99))
	ls.set("client.batch8_p50_ms", lat(kinds(opBatch), 0.50))
	ls.set("client.resubmit_p50_ms", lat(kinds(opResubmit), 0.50))
	ls.set("client.sse_p50_ms", lat(kinds(opSSE), 0.50))
	ls.set("client.direct_read_p50_ms", lat(kinds(opDirectRead), 0.50))
	ls.set("server.queue_wait_ms", median(waits))
	ls.set("server.run_ms", median(runs))

	// Tracing overhead: the traced window against the untraced one, on
	// throughput for a closed loop (latency there just mirrors it) and on
	// median latency for the open loop (whose throughput is the schedule).
	plain, traced := wins[0].endToEndMetrics(), wins[1].endToEndMetrics()
	if cfg.w.OpenRate > 0 {
		a, b := plain["op_latency_p50_ms"].Value, traced["op_latency_p50_ms"].Value
		ls.set("client.trace_overhead_pct", 100*ratio(b-a, a))
	} else {
		a, b := plain["ops_per_s"].Value, traced["ops_per_s"].Value
		ls.set("client.trace_overhead_pct", 100*ratio(a-b, a))
	}

	delta := func(series string) float64 { return after[series] - before[series] }
	done := delta("dmwd_jobs_completed_total")
	ls.set("server.rejected_share", ratio(delta("dmwd_jobs_rejected_total"),
		delta("dmwd_jobs_rejected_total")+delta("dmwd_jobs_accepted_total")))
	for _, ph := range protocol.PhaseNames {
		label := `{phase="` + ph + `"}`
		ls.set("dmw.phase_"+ph+"_ms", 1e3*ratio(delta("dmwd_phase_seconds_sum"+label), delta("dmwd_phase_seconds_count"+label)))
	}
	ls.set("journal.appends_per_job", ratio(delta("dmwd_journal_appends_total"), done))
	ls.set("journal.bytes_per_job", ratio(delta("dmwd_journal_bytes_total"), done))
	ls.set("journal.fsyncs_per_job", ratio(delta("dmwd_journal_fsyncs_total"), done))
	ls.set("replica.pushes_per_job", ratio(delta("dmwd_replica_pushes_total"), done))
	ls.set("replica.dropped_share", ratio(delta("dmwd_replica_dropped_total"),
		delta("dmwd_replica_dropped_total")+delta("dmwd_replica_pushes_total")))

	if n := tgt.exact.jobs.Load(); n > 0 {
		ls.set("transport.msgs_per_job", float64(tgt.exact.msgs.Load())/float64(n))
		ls.set("transport.wire_bytes_per_job", float64(tgt.exact.bytes.Load())/float64(n))
		ls.set("transport.rounds_per_job", float64(tgt.exact.rounds.Load())/float64(n))
	}

	first, last := wins[0].marks[0], wins[len(wins)-1].marks[wins[len(wins)-1].n]
	ok := 0
	peak := 0
	for _, w := range wins {
		for _, n := range w.completed() {
			ok += n
		}
		peak = max(peak, w.goroutinesPeak)
	}
	ls.set("runtime.gc_cpu_share", ratio(last.gcCPU-first.gcCPU, (last.cpu-first.cpu).Seconds()))
	ls.set("runtime.alloc_kb_per_op", ratio(float64(last.allocBytes-first.allocBytes)/1024, float64(ok)))
	ls.set("runtime.peak_rss_mb", peakRSSMiB())
	ls.set("runtime.goroutines_peak", float64(peak))
}

// replayLayers reconciles the layers against the real thing. Each round of
// its loop replays one job layer by layer, runs the same shape through a
// real dmw.Run, and pushes the job's message pattern through the real round
// fabric — interleaved, so that all three are measured in the same machine
// weather. It reports the function-level metrics the replay samples and
// dmw.unattributed_share, and prints the reconciliation to stderr.
func replayLayers(ls *layerSet, cfg runConfig, g *group.Group, rec *obs.Recorder) *replay {
	w := cfg.w
	rp := newReplay(w, g)
	// dmw.Run on the shared group, auctions sequential as under a saturated
	// server (AuctionParallelism = GOMAXPROCS/Workers = 1).
	run := protocol.RunConfig{Params: g.Params(), Group: g, Bid: w.bid(), Parallelism: 1}
	var runCPU, fabricCPU time.Duration
	var walls []float64
	var mallocs uint64
	rounds := 0
	for start := time.Now(); time.Since(start) < cfg.replayBudget()/4 || rounds < 3; rounds++ {
		seed := cfg.seed + int64(rounds)
		// The first pass is the traced one: its spans land in the trace
		// file under one "replay" root.
		var root *obs.ActiveSpan
		if rounds == 0 {
			root = rec.Start("replay", 0)
			rp.rec, rp.parent = rec, root.ID()
		}
		err := rp.job(seed)
		root.End()
		rp.rec = nil
		if err != nil {
			ls.fail("layer replay", err)
			return nil
		}

		run.Seed, run.TrueBids = seed, dmw.RandomBids(w.N, w.M, w.W, seed)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := processCPU(), time.Now()
		_, err = protocol.Run(run)
		walls = append(walls, float64(time.Since(t0)))
		runCPU += processCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			ls.fail("dmw.Run", err)
			return rp
		}

		// The fabric's share is measured in cpu, not wall: its goroutines
		// spend most of a round parked at the barrier.
		cpu0 = processCPU()
		err = runFabric(w.N, rp.rounds)
		fabricCPU += processCPU() - cpu0
		if err != nil {
			ls.fail("transport replay", err)
			return rp
		}
	}
	n := time.Duration(rounds)
	runCPU, fabricCPU = runCPU/n, fabricCPU/n

	for call, metric := range map[string]string{
		"bidcode.encode":           "bidcode.encode_us",
		"bidcode.shares":           "bidcode.shares_us",
		"commit.new":               "commit.new_us",
		"commit.batch_verify":      "commit.batch_verify_us",
		"commit.verify_disclosure": "commit.verify_disclosure_us",
		"poly.interpolate":         "poly.interpolate_us",
		"field.lagrange":           "field.lagrange_us",
	} {
		ls.dur(metric, median(rp.calls[call]))
	}
	ls.dur("dmw.run_ms", median(walls))
	ls.set("dmw.allocs_per_run", float64(mallocs)/float64(rounds))

	replayed := fabricCPU
	for _, d := range rp.layer {
		replayed += d / n
	}
	ls.set("dmw.unattributed_share", 1-ratio(float64(replayed), float64(runCPU)))
	fmt.Fprintf(os.Stderr, "dmwbench: layer replay, %d rounds, cpu per job: dmw.Run %.3fms; replayed %.3fms =", rounds, ms(runCPU), ms(replayed))
	for _, l := range sortedKeys(rp.layer) {
		fmt.Fprintf(os.Stderr, " %s %.3f", l, ms(rp.layer[l]/n))
	}
	fmt.Fprintf(os.Stderr, " transport %.3f; group+commit share of dmw.Run cpu %.3f\n", ms(fabricCPU),
		ratio(float64((rp.layer["group"]+rp.layer["commit"])/n), float64(runCPU)))
	return rp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// functionLayers times single exported functions on inputs of the
// workload's shape, taken from the replay's last pass.
func functionLayers(ls *layerSet, cfg runConfig, g *group.Group, rp *replay) {
	w, f, fx := cfg.w, g.Scalars(), &rp.fixtures
	n, sigma := w.N, w.bid().Sigma()
	rng := rand.New(rand.NewSource(cfg.seed))
	x, _ := f.RandNonZero(rng)
	y, _ := f.RandNonZero(rng)
	a, b := g.Pow1(x), g.Pow2(y)

	ls.time("field.inv_ns", func() { _, _ = f.Inv(x) })
	ls.time("poly.eval_us", func() { fx.enc.E.Eval(fx.alphas[n-1]) })
	pts := make([]poly.Share, n)
	for k := range pts {
		pts[k] = poly.Share{Node: fx.alphas[k], Value: fx.esum[k]}
	}
	cands := w.bid().DegreeCandidates()
	ls.timeErr("poly.resolve_degree_us", func() error {
		_, err := poly.ResolveDegree(f, pts, cands)
		return err
	})

	ls.time("group.mul_ns", func() { g.Mul(a, b) })
	ls.time("group.exp_us", func() { g.Exp(a, x) })
	ls.time("group.commit_us", func() { g.Commit(x, y) })
	ls.time("group.multiexp_sigma_us", func() { _, _ = g.MultiExp(fx.comms[0].Q, fx.powers[0]) })
	// The batched share check of one receiver: 3*sigma terms from each of
	// the n-1 senders in one multi-exponentiation.
	var bases, exps []*big.Int
	for _, c := range fx.comms[1:] {
		for _, vec := range [][]*big.Int{c.O, c.Q, c.R} {
			for l, v := range vec {
				bases = append(bases, v)
				exps = append(exps, fx.powers[0][l%sigma])
			}
		}
	}
	ls.time("group.multiexp_batch_us", func() { _, _ = g.MultiExp(bases, exps) })
	builds := make([]float64, 5)
	for i := range builds {
		fresh, err := group.New(g.Params())
		if err != nil {
			ls.fail("group.New", err)
			break
		}
		builds[i] = float64(fresh.TableBuildTime())
	}
	ls.dur("group.table_build_ms", median(builds))

	ls.time("commit.gamma_at_us", func() {
		t, _ := commit.NewGammaTable(g, fx.comms, fx.powers)
		_, _ = t.At(0, 1)
	})
	ls.timeErr("commit.verify_lambda_psi_us", func() error {
		return commit.VerifyLambdaPsi(g, fx.comms, fx.powers[0], fx.lambda[0], fx.psi[0], -1)
	})
	// How much of the n agents' Gamma work the per-auction shared cache
	// absorbs: every agent needs all n*n entries, each is computed once.
	var ctr group.Counter
	counted := g.WithCounter(&ctr)
	cache := commit.NewSharedGammaCache()
	for i := 0; i < n; i++ {
		t, _ := commit.NewGammaTable(counted, fx.comms, fx.powers)
		t.UseShared(cache)
		for k := 0; k < n; k++ {
			ls.fail("gamma table", t.VerifyLambdaPsi(k, fx.lambda[k], fx.psi[k], -1))
		}
	}
	ls.set("commit.gamma_shared_hit_share", 1-ratio(float64(ctr.MultiExps()), float64(n*n*n)))

	// The cross-job coalescer under P concurrent receivers.
	var passes, items atomic.Int64
	co := commit.NewCoalescer(g, 0, 0, func(n int) { passes.Add(1); items.Add(int64(n)) })
	var wg sync.WaitGroup
	perCaller := make([]float64, cfg.procs)
	callerErr := make([]error, cfg.procs)
	for c := range perCaller {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			k := c % n
			perCaller[c] = timeIt(ls.budget, func() {
				if err := co.VerifyShares(fx.powers[k], fx.items[k], crng); err != nil {
					callerErr[c] = err
				}
			})
		}(c)
	}
	wg.Wait()
	ls.fail("commit.coalesced_verify_us", errors.Join(callerErr...))
	ls.dur("commit.coalesced_verify_us", median(perCaller))
	ls.set("commit.coalesce_items_per_pass", ratio(float64(items.Load()), float64(passes.Load())))

	// The round fabric alone: n endpoints each broadcast one pair and meet
	// at the barrier.
	const rounds = 200
	pair := protocol.LambdaPsiPayload{Lambda: fx.lambda[0], Psi: fx.psi[0]}
	round := make(txRound, n)
	for i := range round {
		round[i] = []txMsg{{-1, transport.KindLambdaPsi, pair}}
	}
	net := make([]txRound, rounds)
	for i := range net {
		net[i] = round
	}
	cpu0, t0 := processCPU(), time.Now()
	ls.fail("transport", runFabric(n, [][]txRound{net}))
	ls.dur("transport.round_us", float64(time.Since(t0))/rounds)
	ls.dur("transport.msg_ns", float64(processCPU()-cpu0)/float64(rounds*n*(n-1)))

	// The relay codec on a sigma-sized commitment message.
	msg := transport.Message{From: 0, To: 1, Kind: transport.KindCommitments, Payload: protocol.CommitmentsPayload{C: fx.comms[0]}}
	enc, err := wire.EncodeMessage(msg)
	ls.fail("wire.EncodeMessage", err)
	ls.time("wire.msg_encode_ns", func() { _, _ = wire.EncodeMessage(msg) })
	ls.time("wire.msg_decode_ns", func() { _, _ = wire.DecodeMessage(enc) })

	bids := dmw.RandomBids(w.N, w.M, w.W, cfg.seed)
	ls.time("mechanism.minwork_us", func() { _, _ = dmw.RunCentralized(bids) })
}

// probeLayers prices the serving stack on an otherwise idle fleet of the
// workload's shape: jobs submitted one at a time, each measured call made
// by this goroutine alone.
func probeLayers(ls *layerSet, cfg runConfig, probe *stack, pt *target, g *group.Group) {
	w := cfg.w
	srv := probe.servers[0]
	spec := func(id string, seed int64) server.JobSpec {
		return server.JobSpec{ID: id, Random: &server.RandomSpec{Agents: w.N, Tasks: w.M}, W: w.W, Seed: seed, Record: true}
	}
	// Enough jobs for a stable median, bounded by the budget: a Sim256 job
	// is tens of milliseconds.
	jobs := 24
	if est := ls.out["server.run_ms"].Value; est > 0 {
		jobs = min(24, max(6, int(ms(cfg.replayBudget()/8)/est)))
	}
	before := readCounters(probe, pt)

	// Server.Submit from inside the process, then the job's own account of
	// its run against a bare dmw.Run of the same spec.
	var submit, runMS, bare []float64
	var lastID string
	for i := 0; i < jobs; i++ {
		sp := spec(fmt.Sprintf("probe-s%d-%d", cfg.seed, i), cfg.seed+int64(i))
		t0 := time.Now()
		job, err := srv.Submit(sp)
		submit = append(submit, float64(time.Since(t0)))
		if err != nil || !job.WaitDone(opTimeout) {
			ls.fail("probe submit", fmt.Errorf("job %s did not finish: %v", sp.ID, err))
			return
		}
		v := job.View()
		ls.fail("probe job", terminalOK(&v))
		runMS = append(runMS, v.RunMS)
		lastID = job.ID

		run := protocol.RunConfig{Params: g.Params(), Group: g, Bid: w.bid(), Parallelism: 1,
			TrueBids: dmw.RandomBids(w.N, w.M, w.W, sp.Seed), Seed: sp.Seed, Record: true}
		t0 = time.Now()
		_, err = protocol.Run(run)
		bare = append(bare, ms(time.Since(t0)))
		ls.fail("dmw.Run", err)
	}
	ls.dur("server.submit_us", median(submit))
	ls.set("server.overhead_ms", median(runMS)-median(bare))

	// One count_ops job: Theorem 12's exact operation counts.
	counted := spec(fmt.Sprintf("probe-c%d", cfg.seed), cfg.seed)
	counted.CountOps = true
	if job, err := srv.Submit(counted); err != nil || !job.WaitDone(opTimeout) || job.Result() == nil {
		ls.fail("count_ops job", fmt.Errorf("did not finish: %v", err))
	} else {
		ls.set("group.exps_per_job", float64(job.Result().GroupExp))
		ls.set("group.multiexp_terms_per_job", float64(job.Result().GroupMultiExpTerms))
	}

	// The recorded transcript of one job, audited.
	if job, ok := srv.Get(lastID); ok && job.Transcript() != nil {
		tr := job.Transcript()
		ls.timeErr("audit.verify_ms", func() error {
			rep, err := audit.Verify(probe.params, tr)
			if err == nil && !rep.OK() {
				err = fmt.Errorf("probe transcript does not verify: %v", rep.Findings)
			}
			return err
		})
	} else {
		ls.fail("audit", fmt.Errorf("probe job %s kept no transcript", lastID))
	}

	// HTTP: the same submit and read, straight to the owning replica and
	// through the gateway; the gateway's cost is the difference of medians.
	// Alternating the two keeps drift out of the difference.
	post := func(base, id string, seed int64) (float64, error) {
		body, err := json.Marshal(spec(id, seed))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		status, data, err := pt.roundTrip(http.MethodPost, base+"/v1/jobs", body, tenantIDs[0])
		d := float64(time.Since(t0))
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("submit %s: HTTP %d: %s", id, status, clip(data))
		}
		if err != nil {
			return 0, err
		}
		_, err = pt.await(id, nil, nil)
		return d, err
	}
	get := func(base, id string) (float64, error) {
		t0 := time.Now()
		err := pt.readJob(base, id, "", nil, nil)
		return float64(time.Since(t0)), err
	}
	var direct, viaGW, readDirect, readGW []float64
	var ids []string
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("probe-h%d-%d", cfg.seed, i)
		base, into := probe.gwURL, &viaGW
		if i%2 == 0 {
			base, into = probe.urls[probe.owner(id)], &direct
		}
		d, err := post(base, id, cfg.seed+int64(i))
		if err != nil {
			ls.fail("probe http submit", err)
			return
		}
		*into = append(*into, d)
		ids = append(ids, id)
	}
	for i := 0; i < 8*jobs; i++ {
		id := ids[i%len(ids)]
		base, into := probe.gwURL, &readGW
		if i%2 == 0 {
			base, into = probe.urls[probe.owner(id)], &readDirect
		}
		d, err := get(base, id)
		if err != nil {
			ls.fail("probe http read", err)
			return
		}
		*into = append(*into, d)
	}
	ls.dur("server.http_submit_us", median(direct))
	ls.dur("server.http_read_us", median(readDirect))
	ls.dur("gateway.submit_overhead_us", median(viaGW)-median(direct))
	ls.dur("gateway.read_overhead_us", median(readGW)-median(readDirect))

	// A batch of 8 through the gateway's scatter-gather.
	var perJob []float64
	for i := 0; i < max(2, jobs/8); i++ {
		specs := make([]server.JobSpec, batchSize)
		for k := range specs {
			specs[k] = spec(fmt.Sprintf("probe-b%d-%d.%d", cfg.seed, i, k), cfg.seed+int64(i*batchSize+k))
		}
		body, _ := json.Marshal(specs)
		t0 := time.Now()
		status, data, err := pt.roundTrip(http.MethodPost, probe.gwURL+"/v1/jobs/batch", body, tenantIDs[0])
		perJob = append(perJob, float64(time.Since(t0))/batchSize)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, clip(data))
		}
		if err != nil {
			ls.fail("probe batch", err)
			return
		}
		for k := range specs {
			if _, err := pt.await(specs[k].ID, nil, nil); err != nil {
				ls.fail("probe batch", err)
				return
			}
		}
	}
	ls.dur("gateway.batch_submit_us_per_job", median(perJob))

	// Reads from the replica that does not own the job must come from its
	// copies (they land asynchronously: wait for the last one first).
	last := ids[len(ids)-1]
	for deadline := time.Now().Add(5 * time.Second); pt.readJob(probe.urls[1-probe.owner(last)], last, "", nil, nil) != nil; {
		if time.Now().After(deadline) {
			ls.fail("probe replica read", fmt.Errorf("job %s never replicated", last))
			return
		}
		time.Sleep(time.Millisecond)
	}
	copyReads := readCounters(probe, pt)["dmwd_replica_reads_total"]
	for _, id := range ids {
		if _, err := get(probe.urls[1-probe.owner(id)], id); err != nil {
			ls.fail("probe replica read", err)
			return
		}
	}

	scrape := func(base string) func() error {
		return func() error {
			status, _, err := pt.roundTrip(http.MethodGet, base+"/metrics", nil, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("scraping %s: HTTP %d", base, status)
			}
			return err
		}
	}
	ls.timeErr("server.metrics_scrape_ms", scrape(probe.urls[0]))
	ls.timeErr("gateway.metrics_scrape_ms", scrape(probe.gwURL))

	after := readCounters(probe, pt)
	ls.set("replica.copy_read_share", ratio(after["dmwd_replica_reads_total"]-copyReads, float64(len(ids))))
	ls.set("gateway.relay_pool_hit_share", 1-ratio(after["dmwgw_relay_pool_misses_total"], after["dmwgw_relay_pool_gets_total"]))
	ls.set("gateway.wire_negotiated_share", ratio(after["dmwgw_wire_negotiated_total"], float64(len(probe.servers))))
	if !w.Fleet {
		// The proto workloads' windows touch no journal or replica tier;
		// the probe's jobs stand in so the per-job counts are known at
		// this shape too.
		delta := func(series string) float64 { return after[series] - before[series] }
		done := delta("dmwd_jobs_completed_total")
		ls.set("journal.appends_per_job", ratio(delta("dmwd_journal_appends_total"), done))
		ls.set("journal.bytes_per_job", ratio(delta("dmwd_journal_bytes_total"), done))
		ls.set("journal.fsyncs_per_job", ratio(delta("dmwd_journal_fsyncs_total"), done))
		ls.set("replica.pushes_per_job", ratio(delta("dmwd_replica_pushes_total"), done))
	}
	ls.time("ring.owner_ns", func() { probe.ring.Owner(last) })
}

// storageLayers times the stateful helpers of the serving stack on their
// own: admission, queue, hub, WAL, replica store and offer, frames, HDR.
func storageLayers(ls *layerSet, cfg runConfig) {
	now := time.Now()
	reg := tenant.NewRegistry(tenantConfig())
	i := 0
	ls.time("tenant.admit_ns", func() {
		tn := reg.Get(tenantIDs[i%numTenants])
		i++
		if ok, _ := tn.TakeToken(now); ok && tn.Reserve() {
			tn.Release()
		}
	})
	q := tenant.NewQueue[int](queueDepth)
	ls.time("tenant.queue_push_pop_ns", func() {
		_ = q.Push(tenantIDs[i%numTenants], 1+i%numTenants, i)
		i++
		q.Pop()
	})
	hub := tenant.NewHub()
	sub := hub.SubscribeJob("watched", 0)
	defer sub.Close()
	ls.time("tenant.hub_publish_ns", func() {
		hub.Publish(tenant.Event{Type: tenant.EventPhase, Time: now, Tenant: tenantIDs[0], JobID: "unwatched"})
	})
	h := obs.NewHDR()
	ls.time("obs.hdr_observe_ns", func() { h.Observe(0.00123) })

	// The WAL, on entries the size of this workload's records.
	size := 512
	if a := ls.out["journal.appends_per_job"].Value; a > 0 {
		size = int(ls.out["journal.bytes_per_job"].Value / a)
	}
	entry := journal.Entry{Kind: 1, Data: bytes.Repeat([]byte{'x'}, size)}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "journal-")
	if err != nil {
		ls.fail("journal", err)
		return
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncInterval})
	if err != nil {
		ls.fail("journal.Open", err)
		return
	}
	batch := make([]journal.Entry, batchSize)
	for k := range batch {
		batch[k] = entry
	}
	ls.time("journal.append_us", func() { _ = j.Append(entry) })
	ls.time("journal.append_batch8_us", func() { _ = j.AppendBatch(batch) })
	syncs := make([]float64, 5)
	for k := range syncs {
		_ = j.Append(entry)
		t0 := time.Now()
		ls.fail("journal.Sync", j.Sync())
		syncs[k] = float64(time.Since(t0))
	}
	ls.dur("journal.sync_ms", median(syncs))
	ls.fail("journal.Close", j.Close())

	// Recovery: replaying 1000 entries at the next Open.
	rdir, err := os.MkdirTemp(cfg.tmpRoot, "recovery-")
	if err != nil {
		ls.fail("journal", err)
		return
	}
	defer os.RemoveAll(rdir)
	opens := make([]float64, 3)
	for k := range opens {
		j, _, err := journal.Open(journal.Options{Dir: rdir, Sync: journal.SyncNever})
		if err != nil {
			ls.fail("journal.Open", err)
			return
		}
		if k == 0 {
			for e := 0; e < 1000; e++ {
				_ = j.Append(entry)
			}
		}
		ls.fail("journal.Close", j.Close())
		t0 := time.Now()
		j, rec, err := journal.Open(journal.Options{Dir: rdir, Sync: journal.SyncNever})
		opens[k] = float64(time.Since(t0))
		if err != nil || len(rec.Entries) != 1000 {
			ls.fail("journal recovery", fmt.Errorf("replayed %d of 1000 entries: %v", len(rec.Entries), err))
			return
		}
		ls.fail("journal.Close", j.Close())
	}
	ls.dur("journal.recovery_ms_per_1k", median(opens))

	// Replica tier: the copy store, and the offer a worker makes when a job
	// finishes (an enqueue; the push itself is asynchronous).
	store := replica.NewStore()
	payload := json.RawMessage(`{"id":"x"}`)
	for k := 0; k < 1000; k++ {
		store.Put(replica.Record{ID: "job-" + strconv.Itoa(k), Payload: payload}, now.Add(time.Hour))
	}
	ls.time("replica.store_get_ns", func() { store.Get("job-500", now) })
	sink := &stack{}
	sinkURL, err := sink.serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	if err != nil {
		ls.fail("replica sink", err)
		return
	}
	defer sink.close()
	repl := replica.NewReplicator(replica.Config{})
	defer repl.Close()
	repl.Update(replica.View{Epoch: 1, Self: "a", Replication: 2,
		Peers: []replica.Peer{{Name: "a", URL: sinkURL, Weight: 1}, {Name: "b", URL: sinkURL, Weight: 1}}})
	record := replica.Record{ID: "job-1", Origin: "a", Epoch: 1}
	record.Payload, _ = json.Marshal(string(entry.Data)) // a JSON value of a record's size
	ls.time("replica.offer_us", func() { repl.Offer(record) })

	// Intra-fleet frames: one job out, eight results and eight records back.
	wjob := server.SpecToWire(server.JobSpec{ID: "frame-1", Random: &server.RandomSpec{Agents: cfg.w.N, Tasks: cfg.w.M},
		W: cfg.w.W, Seed: cfg.seed, Record: true, Tenant: tenantIDs[0], RequestID: "req-1"})
	ls.timeErr("wire.job_frame_rt_us", func() error {
		b, err := wire.EncodeJobFrame([]wire.Job{wjob})
		if err == nil {
			_, err = wire.DecodeJobFrame(b)
		}
		return err
	})
	results := make([]wire.ResultItem, batchSize)
	records := make([]wire.Record, batchSize)
	for k := range results {
		results[k] = wire.ResultItem{Status: http.StatusAccepted, Body: record.Payload}
		records[k] = wire.Record{ID: "job-" + strconv.Itoa(k), Origin: "a", Epoch: 1, Payload: record.Payload}
	}
	var buf []byte
	ls.timeErr("wire.result_frame_rt_us", func() error {
		buf = wire.AppendResultFrame(buf[:0], results)
		_, err := wire.DecodeResultFrame(buf)
		return err
	})
	ls.timeErr("wire.record_frame_rt_us", func() (err error) {
		if buf, err = wire.AppendRecordFrame(buf[:0], records); err == nil {
			_, err = wire.DecodeRecordFrame(buf)
		}
		return err
	})
}
