package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"dmw/internal/obs"
	"dmw/internal/server"
	"dmw/internal/slo"
	"dmw/internal/tenant"
)

// loadConfig parameterizes one open-loop run.
type loadConfig struct {
	URL        string
	Rate       float64 // arrivals per second
	Duration   time.Duration
	Workers    int
	Tenants    int
	BatchFrac  float64
	BatchSize  int
	TraceFrac  float64
	SSEFrac    float64
	Agents     int
	Tasks      int
	Objectives []slo.Objective
	OpTimeout  time.Duration
	Seed       int64
}

// opClass partitions the traffic mix.
type opClass int

const (
	classSingle opClass = iota
	classBatch
	classTraced
	classSSE
	numClasses
)

func (c opClass) String() string {
	switch c {
	case classSingle:
		return "single"
	case classBatch:
		return "batch"
	case classTraced:
		return "traced"
	case classSSE:
		return "sse"
	}
	return "unknown"
}

// op is one scheduled arrival. The intended time is fixed before the
// run starts; it is the zero point of the op's latency clock whether or
// not a worker was free to send it on time.
type op struct {
	seq      int
	intended time.Time
	class    opClass
	tenant   string
}

// Quantiles summarizes one latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// ClassSummary is the per-traffic-class slice of the report.
type ClassSummary struct {
	Count     int64     `json:"count"`
	Errors    int64     `json:"errors"`
	Shed      int64     `json:"shed"`
	LatencyMS Quantiles `json:"latency_ms"`
}

// WorstRequest identifies one of the slowest completed ops, with the
// correlation IDs needed to chase it through logs and traces.
type WorstRequest struct {
	RequestID string  `json:"request_id"`
	JobID     string  `json:"job_id,omitempty"`
	Tenant    string  `json:"tenant,omitempty"`
	Class     string  `json:"class"`
	LatencyMS float64 `json:"latency_ms"`
	Traced    bool    `json:"traced"`
}

// ExemplarChase is one tail exemplar lifted from the target's /metrics
// and resolved (or not) to a fetchable trace.
type ExemplarChase struct {
	RequestID    string  `json:"request_id,omitempty"`
	JobID        string  `json:"job_id,omitempty"`
	Tenant       string  `json:"tenant,omitempty"`
	Backend      string  `json:"backend,omitempty"`
	ValueSeconds float64 `json:"value_seconds"`
	Traced       bool    `json:"traced"`
	TraceFetched bool    `json:"trace_fetched"`
}

// LoadSummary is the "load" section of the report.
type LoadSummary struct {
	TargetRate      float64                 `json:"target_rate_per_s"`
	AchievedRate    float64                 `json:"achieved_rate_per_s"`
	DurationSeconds float64                 `json:"duration_seconds"`
	OpenLoop        bool                    `json:"open_loop"`
	Arrivals        int64                   `json:"arrivals"`
	Completed       int64                   `json:"completed"`
	Shed            int64                   `json:"shed"`
	Errors          int64                   `json:"errors"`
	LatencyMS       Quantiles               `json:"latency_ms"`
	Classes         map[string]ClassSummary `json:"classes"`
	SLO             []slo.Verdict           `json:"slo,omitempty"`
	FleetSLO        []slo.Verdict           `json:"fleet_slo,omitempty"`
	Worst           []WorstRequest          `json:"worst,omitempty"`
	Exemplars       []ExemplarChase         `json:"exemplars,omitempty"`
}

// BenchResult is one named figure of the report's results list, in the
// shape of a `go test -bench` line (name, iterations, ns/op, extras).
type BenchResult struct {
	Name       string             `json:"name"`
	Suite      string             `json:"suite,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Report is a host/toolchain envelope, the results list, and the load
// section.
type Report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Results     []BenchResult `json:"results"`
	Load        *LoadSummary  `json:"load"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// maxWorst bounds the worst-request list in the report.
const maxWorst = 8

// runner is the shared state of one run.
type runner struct {
	cfg    loadConfig
	client *http.Client

	overall *obs.HDR
	classes [numClasses]*obs.HDR

	mu        sync.Mutex
	worst     []WorstRequest // ascending by latency, <= maxWorst
	completed [numClasses]int64
	errors    [numClasses]int64
	shed      [numClasses]int64
}

// runLoad executes the open-loop schedule and assembles the report.
func runLoad(cfg loadConfig) (*Report, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("need positive -rate and -duration")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = time.Minute
	}
	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}

	r := &runner{
		cfg:     cfg,
		overall: obs.NewHDR(),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Workers,
				MaxIdleConnsPerHost: cfg.Workers,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for i := range r.classes {
		r.classes[i] = obs.NewHDR()
	}

	// The whole schedule is drawn before the first send: classes and
	// tenants come from the seeded source, so a run is reproducible and
	// the mix cannot drift with server behavior (a generator that
	// reclassifies under pressure is a closed loop in disguise).
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := make([]op, total)
	start := time.Now().Add(50 * time.Millisecond) // headroom so arrival 0 is not already late
	for i := range plan {
		class := classSingle
		switch roll := rng.Float64(); {
		case roll < cfg.BatchFrac:
			class = classBatch
		case roll < cfg.BatchFrac+cfg.TraceFrac:
			class = classTraced
		case roll < cfg.BatchFrac+cfg.TraceFrac+cfg.SSEFrac:
			class = classSSE
		}
		plan[i] = op{
			seq:      i,
			intended: start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second))),
			class:    class,
			tenant:   fmt.Sprintf("load-t%d", rng.Intn(cfg.Tenants)),
		}
	}

	// Open loop: the dispatcher walks the fixed ladder and never waits
	// for a worker — the channel holds the entire schedule, so a slow
	// fleet backs ops up in the channel while their latency clocks
	// (intended times) keep running.
	ops := make(chan op, total)
	go func() {
		for _, o := range plan {
			time.Sleep(time.Until(o.intended))
			ops <- o
		}
		close(ops)
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ops {
				r.execute(o)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	return r.report(total, elapsed), nil
}

// execute runs one op and records its outcome.
func (r *runner) execute(o op) {
	var jobID string
	var err error
	shed := false
	switch o.class {
	case classBatch:
		shed, err = r.doBatch(o)
	default:
		jobID, shed, err = r.doSingle(o, o.class == classTraced, o.class == classSSE)
	}
	latency := time.Since(o.intended)

	if shed || err != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if shed {
			r.shed[o.class]++ // never admitted: no latency to attribute
		} else {
			r.errors[o.class]++
		}
		return
	}
	// The HDRs are internally atomic; only the counters and the
	// worst-list need the lock.
	secs := latency.Seconds()
	r.overall.Observe(secs)
	r.classes[o.class].Observe(secs)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.completed[o.class]++
	wr := WorstRequest{
		RequestID: requestID(o),
		JobID:     jobID,
		Tenant:    o.tenant,
		Class:     o.class.String(),
		LatencyMS: secs * 1e3,
		Traced:    o.class == classTraced,
	}
	i := sort.Search(len(r.worst), func(i int) bool { return r.worst[i].LatencyMS >= wr.LatencyMS })
	r.worst = append(r.worst, WorstRequest{})
	copy(r.worst[i+1:], r.worst[i:])
	r.worst[i] = wr
	if len(r.worst) > maxWorst {
		r.worst = r.worst[1:]
	}
}

// requestID names op o's submission for correlation.
func requestID(o op) string { return fmt.Sprintf("load-%d", o.seq) }

// jobID names op o's job (item k for batches). Client-chosen IDs pin
// ring placement before the submit leaves the generator and make any
// retry idempotent.
func (r *runner) jobID(o op, k int) string {
	return fmt.Sprintf("load-%d-%d.%d", r.cfg.Seed, o.seq, k)
}

func (r *runner) spec(o op, k int, trace bool) server.JobSpec {
	return server.JobSpec{
		ID:     r.jobID(o, k),
		Random: &server.RandomSpec{Agents: r.cfg.Agents, Tasks: r.cfg.Tasks},
		// W spans 1..3 so the default 4-agent workload satisfies the
		// bid-code evaluation-point bound (span+2 <= n).
		W:         []int{1, 2, 3},
		Seed:      r.cfg.Seed + int64(o.seq),
		Trace:     trace,
		RequestID: requestID(o),
		Tenant:    o.tenant,
	}
}

// post sends one JSON body with the op's correlation headers.
func (r *runner) post(o op, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, r.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderRequestID, requestID(o))
	req.Header.Set(tenant.HeaderTenantID, o.tenant)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return resp.StatusCode, data, err
}

// awaitTerminal long-polls one job until it reaches a terminal state.
func (r *runner) awaitTerminal(id string, deadline time.Time) error {
	for {
		resp, err := r.client.Get(r.cfg.URL + "/v1/jobs/" + id + "?wait=10s")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("poll %s: HTTP %d", id, resp.StatusCode)
		}
		var view server.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			return fmt.Errorf("poll %s: %w", id, err)
		}
		if view.State.Terminal() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("poll %s: still %s after op timeout", id, view.State)
		}
	}
}

// doSingle submits one job and observes it to completion, either by
// long-polling or (sse) by consuming the job's SSE event stream, which
// ends at the terminal event.
func (r *runner) doSingle(o op, trace, sse bool) (jobID string, shed bool, err error) {
	deadline := time.Now().Add(r.cfg.OpTimeout)
	spec := r.spec(o, 0, trace)
	status, body, err := r.post(o, "/v1/jobs", spec)
	if err != nil {
		return "", false, err
	}
	switch status {
	case http.StatusAccepted, http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", true, nil
	default:
		return "", false, fmt.Errorf("submit: HTTP %d: %s", status, truncate(body))
	}
	if sse {
		resp, err := r.client.Get(r.cfg.URL + "/v1/jobs/" + spec.ID + "/events")
		if err != nil {
			return spec.ID, false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return spec.ID, false, fmt.Errorf("events %s: HTTP %d", spec.ID, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			// Per-job streams close at the terminal event; draining to
			// EOF IS waiting for completion.
		}
		return spec.ID, false, sc.Err()
	}
	return spec.ID, false, r.awaitTerminal(spec.ID, deadline)
}

// doBatch submits one batch and observes every accepted item to
// completion; the op completes when its slowest item does.
func (r *runner) doBatch(o op) (shed bool, err error) {
	deadline := time.Now().Add(r.cfg.OpTimeout)
	specs := make([]server.JobSpec, r.cfg.BatchSize)
	for k := range specs {
		specs[k] = r.spec(o, k, false)
	}
	status, body, err := r.post(o, "/v1/jobs/batch", specs)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("batch: HTTP %d: %s", status, truncate(body))
	}
	var items []server.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		return false, fmt.Errorf("batch: %w", err)
	}
	accepted := 0
	for k, it := range items {
		if !it.Accepted {
			continue
		}
		accepted++
		if err := r.awaitTerminal(specs[k].ID, deadline); err != nil {
			return false, err
		}
	}
	if accepted == 0 {
		return true, nil // whole batch shed by admission control
	}
	return false, nil
}

func truncate(b []byte) string {
	s := string(b)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// quantiles summarizes one HDR into milliseconds.
func quantiles(h *obs.HDR, maxMS float64) Quantiles {
	s := h.Snapshot()
	return Quantiles{
		P50:  s.Quantile(0.50) * 1e3,
		P90:  s.Quantile(0.90) * 1e3,
		P99:  s.Quantile(0.99) * 1e3,
		P999: s.Quantile(0.999) * 1e3,
		Max:  maxMS,
	}
}

// report assembles the final document, including the SLO verdicts over
// the measured distribution, the target's own /healthz verdicts, and
// the exemplar chase from /metrics to traces.
func (r *runner) report(arrivals int, elapsed time.Duration) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()

	var completed, errs, shed int64
	classes := make(map[string]ClassSummary, numClasses)
	for c := opClass(0); c < numClasses; c++ {
		completed += r.completed[c]
		errs += r.errors[c]
		shed += r.shed[c]
		if r.completed[c]+r.errors[c]+r.shed[c] == 0 {
			continue
		}
		var classMax float64
		for i := len(r.worst) - 1; i >= 0; i-- {
			if r.worst[i].Class == c.String() {
				classMax = r.worst[i].LatencyMS
				break
			}
		}
		classes[c.String()] = ClassSummary{
			Count:     r.completed[c],
			Errors:    r.errors[c],
			Shed:      r.shed[c],
			LatencyMS: quantiles(r.classes[c], classMax),
		}
	}
	var maxMS float64
	if len(r.worst) > 0 {
		maxMS = r.worst[len(r.worst)-1].LatencyMS
	}
	overall := quantiles(r.overall, maxMS)

	// Worst-first ordering reads better in the archived report.
	worst := make([]WorstRequest, len(r.worst))
	for i, wr := range r.worst {
		worst[len(worst)-1-i] = wr
	}

	ls := &LoadSummary{
		TargetRate:      r.cfg.Rate,
		AchievedRate:    float64(completed) / elapsed.Seconds(),
		DurationSeconds: elapsed.Seconds(),
		OpenLoop:        true,
		Arrivals:        int64(arrivals),
		Completed:       completed,
		Shed:            shed,
		Errors:          errs,
		LatencyMS:       overall,
		Classes:         classes,
		SLO:             slo.Evaluate(r.cfg.Objectives, r.overall.Snapshot()),
		FleetSLO:        r.fetchFleetVerdicts(),
		Worst:           worst,
		Exemplars:       r.chaseExemplars(),
	}

	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Load:        ls,
	}
	mean := 0.0
	if completed > 0 {
		mean = r.overall.Sum() / float64(completed) * 1e9
	}
	rep.Results = append(rep.Results, BenchResult{
		Name:       fmt.Sprintf("Loadgen/overall-rate%g", r.cfg.Rate),
		Suite:      "loadgen",
		Iterations: completed,
		NsPerOp:    mean,
		Extra: map[string]float64{
			"p50_ms":  overall.P50,
			"p99_ms":  overall.P99,
			"p999_ms": overall.P999,
			"ops/s":   ls.AchievedRate,
		},
	})
	for c := opClass(0); c < numClasses; c++ {
		cs, ok := classes[c.String()]
		if !ok || cs.Count == 0 {
			continue
		}
		classMean := r.classes[c].Sum() / float64(cs.Count) * 1e9
		rep.Results = append(rep.Results, BenchResult{
			Name:       "Loadgen/" + c.String(),
			Suite:      "loadgen",
			Iterations: cs.Count,
			NsPerOp:    classMean,
			Extra: map[string]float64{
				"p50_ms":  cs.LatencyMS.P50,
				"p99_ms":  cs.LatencyMS.P99,
				"p999_ms": cs.LatencyMS.P999,
			},
		})
	}
	return rep
}

// fetchFleetVerdicts reads the target's /healthz SLO section — the
// server-side burn-rate view of the same run the client just measured.
func (r *runner) fetchFleetVerdicts() []slo.Verdict {
	resp, err := r.client.Get(r.cfg.URL + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil
	}
	var hv struct {
		SLO []slo.Verdict `json:"slo"`
	}
	if json.Unmarshal(data, &hv) != nil {
		return nil
	}
	return hv.SLO
}

// chaseExemplars scrapes the target's /metrics, lifts the tail
// exemplars of the job-latency series, and tries to resolve each to a
// fetchable trace — the round trip that makes a p999 outlier on a
// dashboard debuggable.
func (r *runner) chaseExemplars() []ExemplarChase {
	resp, err := r.client.Get(r.cfg.URL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil
	}
	exs := obs.ParseExemplars(string(data), "dmwd_job_latency_seconds")
	// Traced exemplars first (their traces exist by construction), then
	// slowest first.
	sort.Slice(exs, func(i, j int) bool {
		if exs[i].Traced != exs[j].Traced {
			return exs[i].Traced
		}
		return exs[i].Value > exs[j].Value
	})
	var out []ExemplarChase
	for _, ex := range exs {
		if len(out) >= maxWorst {
			break
		}
		ch := ExemplarChase{
			RequestID:    ex.RequestID,
			JobID:        ex.JobID,
			Tenant:       ex.Tenant,
			Backend:      ex.Backend,
			ValueSeconds: ex.Value,
			Traced:       ex.Traced,
		}
		if ex.JobID != "" {
			if resp, err := r.client.Get(r.cfg.URL + "/v1/jobs/" + ex.JobID + "/trace"); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 8<<20))
				resp.Body.Close()
				ch.TraceFetched = resp.StatusCode == http.StatusOK
			}
		}
		out = append(out, ch)
	}
	return out
}
