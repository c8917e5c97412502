package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmw"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/tenant"
)

// benchmarkJSON mirrors the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractDef `json:"end_to_end"`
	PerLayer []contractDef `json:"per_layer"`
}

type contractDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesContract pins BENCHMARK.json to the Go catalogue and
// to the limits the driver refuses a file for.
func TestCatalogueMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var doc benchmarkJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1,60]", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus warm-up, set-up and
	// teardown (~8 s), must fit the driver's 3420 s with two builds.
	if total := (4 + 22*len(workloads)) * (doc.RunSeconds + 8); total > 3300 {
		t.Errorf("%d runs of ~%d s need %d s, over the driver's budget", 4+22*len(workloads), doc.RunSeconds+8, total)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, catalogue %q/%q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []contractDef, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalogue", len(got), kind, len(want))
		}
		for i, m := range want {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the contract's unit rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound must be set, equal in both places and in (0, 0.25]", m.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end (max 16), %d per-layer (max 128)", len(endToEnd), len(perLayer))
	}
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s end-to-end metric")
	}
}

// TestPlanIsAFunctionOfTheSeed: two generations of a plan are byte-identical
// and a different seed gives a different plan.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := buildPlan(w, 7, 3*time.Second).Bytes()
		b := buildPlan(w, 7, 3*time.Second).Bytes()
		c := buildPlan(w, 8, 3*time.Second).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated two different plans", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same plan", w.Name)
		}
	}
	// The mixed plan keeps its exact proportions in every block of 100.
	w, _ := findWorkload("fleet-mixed-open")
	p := buildPlan(w, 7, 3*time.Second)
	var got [numKinds]int
	for _, op := range p.Ops[:100] {
		got[op.Kind]++
		if !op.Kind.carriesJob() && op.Target == nil {
			t.Fatalf("op %d (%s) has no target", op.Seq, op.Kind)
		}
	}
	if got != mixPer100 {
		t.Errorf("first block mix = %v, want %v", got, mixPer100)
	}
}

func testConfig(t *testing.T, w workload, seconds float64, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{w: w, seed: 3, seconds: seconds, trace: trace, outDir: dir, tmpRoot: dir, procs: min(runtime.NumCPU(), 4)}
}

// mustRun runs one workload and requires a clean result: no error, ops
// attempted, none failed.
func mustRun(t *testing.T, cfg runConfig) *result {
	t.Helper()
	res, err := runWorkload(cfg)
	switch {
	case res == nil:
		t.Fatalf("trace=%v run: %v", cfg.trace, err)
	case err != nil || res.failed != 0 || res.attempted == 0:
		t.Fatalf("trace=%v run: %v; %d of %d ops failed: %s", cfg.trace, err, res.failed, res.attempted, res.firstErr)
	}
	return res
}

func checkMetrics(t *testing.T, res *result, want []metricDef, positive bool) {
	t.Helper()
	if len(res.metrics) != len(want) {
		t.Errorf("%d metrics reported, the contract lists %d", len(res.metrics), len(want))
	}
	for _, m := range want {
		s, ok := res.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case s.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, the contract says %q", m.Name, s.Unit, m.Unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("metric %s is not finite: %v", m.Name, s.Value)
		case positive && s.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, s.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly in both modes and checks
// the contract: every metric present with its unit and finite, no failed
// op, the oracle's samples taken.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs load")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := mustRun(t, testConfig(t, w, 0.5, false))
			checkMetrics(t, res, endToEnd, true)

			cfg := testConfig(t, w, 1.25, true)
			res = mustRun(t, cfg)
			if v := res.metrics["client.failed_share"].Value; v != 0 {
				t.Errorf("client.failed_share = %v", v)
			}
			checkMetrics(t, res, perLayer, false)
			if res.oracle["rederived"] == 0 || w.Fleet && res.oracle["audited"] == 0 {
				t.Errorf("oracle samples: %v", res.oracle)
			}
			if st, err := os.Stat(cfg.outDir + "/" + w.Name + ".trace.jsonl"); err != nil || st.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}

			// The exact counts are a function of the seed alone: the same
			// first jobs of the plan through a bare dmw.Run cost exactly
			// the messages the servers reported. Only the fast closed
			// loops finish the whole hundred in a run this short.
			if res.oracle["exact_jobs"] != exactJobs {
				if w.Preset == group.PresetTest64 && w.OpenRate == 0 {
					t.Errorf("exact-count set has %d jobs, want %d", res.oracle["exact_jobs"], exactJobs)
				}
				return
			}
			g, err := group.SharedFor(w.Preset)
			if err != nil {
				t.Fatal(err)
			}
			var msgs int64
			for _, op := range buildPlan(w, cfg.seed, time.Second).Ops[:exactJobs] {
				r, err := protocol.Run(protocol.RunConfig{Params: g.Params(), Group: g, Bid: w.bid(),
					TrueBids: dmw.RandomBids(w.N, w.M, w.W, op.Seed), Seed: op.Seed})
				if err != nil {
					t.Fatal(err)
				}
				msgs += r.Stats.Messages()
			}
			if got, want := res.metrics["transport.msgs_per_job"].Value, float64(msgs)/exactJobs; got != want {
				t.Errorf("transport.msgs_per_job = %v, a bare replay of the same plan gives %v", got, want)
			}
		})
	}
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"op_latency_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.08}
	for _, c := range []struct {
		m                metricDef
		a, aIQR, b, bIQR float64
		want             string
	}{
		{lower, 2.0, 0.05, 2.1, 0.05, "unchanged"},
		{lower, 2.0, 0.05, 2.5, 0.05, "regressed"},
		{lower, 2.0, 0.05, 1.7, 0.05, "improved"},
		{lower, 2.0, 0.50, 2.5, 0.05, "unresolved"},
		{higher, 600, 10, 500, 10, "regressed"},
		{higher, 600, 10, 700, 10, "improved"},
		{higher, 600, 10, 590, 10, "unchanged"},
	} {
		if _, got := verdict(c.m, c.a, c.aIQR, c.b, c.bIQR); got != c.want {
			t.Errorf("%s %v->%v (IQR %v/%v): verdict %s, want %s", c.m.Name, c.a, c.b, c.aIQR, c.bIQR, got, c.want)
		}
	}
}

// TestAdjustedCarriesToReferenceSpeed pins the host-speed adjustment: a
// metric that follows the probe with a given sensitivity reads the same at
// the reference speed whichever states of the host the run saw, one stalled
// slice does not move it, and a run that saw one state only reports its plain
// median.
func TestAdjustedCarriesToReferenceSpeed(t *testing.T) {
	const atRef, slope = 30.0, 0.6
	run := func(quiet, noisy int) (vals, probeMS []float64) {
		for i := 0; i < quiet+noisy; i++ {
			k := 1.1 + 0.01*float64(i%3)
			if i >= quiet {
				k = 1.7 - 0.01*float64(i%3)
			}
			probeMS = append(probeMS, k)
			vals = append(vals, atRef*math.Pow(k/probeRefMS, slope))
		}
		return vals, probeMS
	}
	for _, mix := range [][2]int{{40, 10}, {10, 40}, {25, 25}} {
		vals, probeMS := run(mix[0], mix[1])
		vals[3] *= 8 // a stall
		got := adjusted("ms", vals, probeMS, 0)
		if math.Abs(got.Value-atRef) > 0.01*atRef || math.Abs(got.Slope-slope) > 0.02 {
			t.Errorf("%d quiet + %d noisy slices: value %.3f slope %.3f, want %.1f and %.1f", mix[0], mix[1], got.Value, got.Slope, atRef, slope)
		}
	}
	vals, probeMS := run(50, 0)
	if got := adjusted("ms", vals, probeMS, 0); got.Slope != 0 || got.Value != got.Median {
		t.Errorf("one host state only: value %.3f slope %.3f, want the plain median %.3f and no slope", got.Value, got.Slope, got.Median)
	}
}

// TestObserveDoneReopensAStalledStream pins the SSE observer's answer to a
// stream that lost its terminal event (heartbeats for ever): it gives up
// after sseStall, reconnects, and succeeds on the replay.
func TestObserveDoneReopensAStalledStream(t *testing.T) {
	var streams atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		if streams.Add(1) > 1 {
			fmt.Fprintf(w, "event: %s\ndata: {}\n\n", tenant.EventDone)
			return
		}
		for r.Context().Err() == nil {
			fmt.Fprint(w, ":hb\n\n")
			w.(http.Flusher).Flush()
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	tgt := newTarget(&stack{gwURL: srv.URL}, &plan{}, 1)
	defer tgt.close()
	if err := tgt.observeDone("j"); err != nil {
		t.Fatal(err)
	}
	if got := tgt.sseReconnects.Load(); got != 1 || streams.Load() != 2 {
		t.Errorf("%d reconnects over %d streams, want 1 over 2", got, streams.Load())
	}
}
