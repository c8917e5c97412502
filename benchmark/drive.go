package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/obs"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	tmpRoot string
	// procs is P: callers/connections and GOMAXPROCS, min(nproc, 4).
	procs int
}

// An untraced run performs the whole set-up at least minSetupReps times, and
// on until the boots add up to setupBudget (or maxSetupReps). A boot takes
// milliseconds, all of them of one thread's computing (parameter validation,
// table build) and syscalls, and the whole series fits inside one of the
// host's moods: on the reference box the same boot reads 6.6 ms or 9.8 ms
// depending on which (README). So each boot is paired with the probe bursts
// taken just before and after it and scaled to the reference host speed in
// proportion
// — there is no second mood inside 300 ms to fit a slope from, and measured
// over 40 s the slope is 0.74–0.94 — and setup_s is the median of those.
const (
	minSetupReps = 5
	maxSetupReps = 40
	setupBudget  = 300 * time.Millisecond
)

// warmUp is the unmeasured lead-in: three seconds, which is what the
// retained-job set needs to stop growing (ResultTTL plus one janitor sweep);
// shorter for runs too short to be measurements (the smoke test).
func (c runConfig) warmUp() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second) * 3 / 20)
	return min(max(d, 500*time.Millisecond), 3*time.Second)
}

// windowLen is one measured window. An untraced run measures one window of
// --seconds. A traced run splits --seconds 2:2:1 between an untraced
// window, a traced window and the layer replay.
func (c runConfig) windowLen() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d = d * 2 / 5
	}
	return d
}

func (c runConfig) windows() int {
	if c.trace {
		return 2
	}
	return 1
}

func (c runConfig) replayBudget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second) / 5)
}

// result is what a run hands to main for printing.
type result struct {
	metrics   map[string]stat
	attempted int64
	failed    int64
	firstErr  string
	oracle    map[string]int64
	// hostProbe is the probe's reading per slice of the first window, in
	// ms; its median says what the host was like during the run.
	hostProbe stat
}

// runWorkload performs one whole run: plan, set-up, warm-up, the measured
// window(s), the traced pass and layer replay when asked, teardown.
func runWorkload(cfg runConfig) (res *result, err error) {
	total := cfg.warmUp() + time.Duration(cfg.windows())*cfg.windowLen()
	pl := buildPlan(cfg.w, cfg.seed, total)

	// Set-up, repeated. Only the last stack is kept.
	var st *stack
	var setups []float64
	for spent := time.Duration(0); ; {
		before := probeOnce()
		t0 := time.Now()
		if st, err = bootStack(cfg.w, cfg.procs, cfg.tmpRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		boot := time.Since(t0)
		spent += boot
		setups = append(setups, boot.Seconds()*probeRefMS/probeLevel([]float64{before, probeOnce()}))
		if n := len(setups); cfg.trace || n >= maxSetupReps || n >= minSetupReps && spent >= setupBudget {
			break
		}
		st.close()
	}
	defer st.close()

	tgt := newTarget(st, pl, cfg.procs)
	defer tgt.close()
	if err := primePool(tgt); err != nil {
		return nil, fmt.Errorf("priming the read pool: %w", err)
	}

	var rec *obs.Recorder
	var tr *tracer
	if cfg.trace {
		rec = obs.NewRecorder()
		tr = &tracer{rec: rec}
	}

	// One continuous load run covers warm-up and every window; the main
	// goroutine meanwhile reads the resource counters at slice boundaries.
	t0 := time.Now().Add(20 * time.Millisecond) // headroom so arrival 0 is not already late
	winStart := t0.Add(cfg.warmUp())
	wlen := cfg.windowLen()
	stopAt := winStart.Add(time.Duration(cfg.windows()) * wlen)
	traceFrom := winStart.Add(wlen) // only consulted when tr != nil

	var before, after counters
	load := startLoad(cfg, tgt, pl, t0, winStart, stopAt, traceFrom, tr)
	host := startProbe(winStart)
	wins := make([]*window, cfg.windows())
	for i := range wins {
		wins[i] = newWindow(wlen)
		if i == 0 && cfg.trace {
			// A little early, so the scrape is over before the first
			// boundary reading; every use divides one counter's delta by
			// another's, so the extra interval cancels.
			time.Sleep(time.Until(winStart.Add(-100 * time.Millisecond)))
			before = readCounters(st, tgt)
		}
		wins[i].sampleBoundaries(winStart.Add(time.Duration(i) * wlen))
	}
	if cfg.trace {
		after = readCounters(st, tgt)
	}
	samples, exhausted := load.wait()
	readings := host.finish()
	if exhausted {
		return nil, errors.New("plan exhausted before the window ended: raise the workload's MaxRate")
	}
	for i, w := range wins {
		shift := time.Duration(i) * wlen
		for _, s := range samples {
			s.start -= shift
			s.end -= shift
			w.samples = append(w.samples, s)
		}
		shifted := make([]probeReading, len(readings))
		for j, r := range readings {
			shifted[j] = probeReading{r.at - shift, r.ms}
		}
		w.setProbe(shifted)
	}

	res = &result{metrics: map[string]stat{}, hostProbe: medianOf("ms", wins[0].probeMS)}
	if !cfg.trace {
		res.metrics = wins[0].endToEndMetrics()
		res.metrics["setup_s"] = medianOf("s", setups)
		for _, m := range endToEnd {
			if s, ok := res.metrics[m.Name]; !ok || len(s.Slices) == 0 {
				err = errors.Join(err, fmt.Errorf("metric %s has no samples (window too short?)", m.Name))
			}
		}
	} else {
		err = errors.Join(layerMetrics(res.metrics, cfg, st, tgt, wins, before, after, rec), writeTrace(cfg, rec))
	}
	res.attempted, res.failed = tgt.attempted.Load(), tgt.failed.Load()
	if p := tgt.firstErr.Load(); p != nil {
		res.firstErr = *p
	}
	res.oracle = map[string]int64{
		"jobs_checked":   tgt.jobs.Load(),
		"rederived":      tgt.rederived.Load(),
		"audited":        tgt.audited.Load(),
		"exact_jobs":     tgt.exact.jobs.Load(),
		"sse_reconnects": tgt.sseReconnects.Load(),
	}
	if tgt.rederived.Load() == 0 || cfg.w.Fleet && tgt.audited.Load() == 0 {
		err = errors.Join(err, errors.New("the sampled oracle checks never ran"))
	}
	return res, err
}

// primePool submits the mixed workload's pool jobs and waits until each is
// readable from the replica that does not own it, so every planned read
// has a finished target and every direct read a replica copy.
func primePool(t *target) error {
	for i := range t.plan.Pool {
		if out, _ := t.run(&t.plan.Pool[i], nil); out.err != nil {
			return out.err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := range t.plan.Pool {
		id := t.plan.Pool[i].ID
		nonOwner := t.st.urls[1-t.st.owner(id)]
		for t.readJob(nonOwner, id, "", nil, nil) != nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("pool job %s never replicated to %s", id, nonOwner)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// load is a running generator.
type load struct {
	wg        sync.WaitGroup
	perWorker [][]sample
	exhausted atomic.Bool
}

func (l *load) wait() ([]sample, bool) {
	l.wg.Wait()
	var all []sample
	for _, s := range l.perWorker {
		all = append(all, s...)
	}
	return all, l.exhausted.Load()
}

// startLoad launches the workload's generator: P closed-loop callers, or
// the open-loop dispatcher with its executor pool. Sample offsets are
// relative to winStart. Ops due (open) or begun (closed) at or after
// traceFrom run traced when tr is non-nil.
func startLoad(cfg runConfig, tgt *target, pl *plan, t0, winStart, stopAt, traceFrom time.Time, tr *tracer) *load {
	l := &load{}
	tracerAt := func(t time.Time) *tracer {
		if tr != nil && !t.Before(traceFrom) {
			return tr
		}
		return nil
	}
	record := func(buf *[]sample, op *planOp, clock, picked time.Time) {
		out, done := tgt.run(op, tracerAt(clock))
		s := sample{kind: op.Kind, ok: out.err == nil, start: clock.Sub(winStart), end: done.Sub(winStart), lag: picked.Sub(clock)}
		if out.view != nil {
			s.queueWaitMS, s.runMS = out.view.QueueWaitMS, out.view.RunMS
		}
		*buf = append(*buf, s)
	}

	if cfg.w.OpenRate <= 0 {
		l.perWorker = make([][]sample, cfg.procs)
		var next atomic.Int64
		for w := range l.perWorker {
			l.wg.Add(1)
			go func(buf *[]sample) {
				defer l.wg.Done()
				time.Sleep(time.Until(t0))
				for {
					now := time.Now()
					if !now.Before(stopAt) {
						return
					}
					i := int(next.Add(1) - 1)
					if i >= len(pl.Ops) {
						l.exhausted.Store(true)
						return
					}
					record(buf, &pl.Ops[i], now, now)
				}
			}(&l.perWorker[w])
		}
		return l
	}

	// Open loop: the dispatcher walks the fixed schedule and never waits for
	// an executor. The channel holds the whole plan, so a slow fleet backs
	// ops up in it while their latency clocks (intended times) keep running.
	ops := make(chan *planOp, len(pl.Ops))
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(ops)
		for i := range pl.Ops {
			due := t0.Add(pl.Ops[i].Due)
			if !due.Before(stopAt) {
				return
			}
			time.Sleep(time.Until(due))
			ops <- &pl.Ops[i]
		}
	}()
	l.perWorker = make([][]sample, min(2*cfg.procs, 8))
	for w := range l.perWorker {
		l.wg.Add(1)
		go func(buf *[]sample) {
			defer l.wg.Done()
			for op := range ops {
				record(buf, op, t0.Add(op.Due), time.Now())
			}
		}(&l.perWorker[w])
	}
	return l
}

// writeTrace exports the traced pass's spans.
func writeTrace(cfg runConfig, rec *obs.Recorder) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, cfg.w.Name+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint identifies the machine and runtime a result came from.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Callers    int    `json:"callers"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

func readFingerprint(procs int) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Callers:    procs,
		CPUModel:   cpuModel(),
	}
}

// sortedKeys returns m's keys in order, for stable human-readable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
