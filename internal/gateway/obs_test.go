package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmw/internal/obs"
	"dmw/internal/server"
	"dmw/internal/slo"
)

// syncBuffer is a goroutine-safe log sink for asserting on slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGatewayCorrelationAndTrace is the cross-layer integration
// scenario: one X-Request-Id submitted at the gateway front door must
// be (a) echoed to the client, (b) visible in the gateway's structured
// logs, (c) visible in the backend replica's structured logs, (d)
// stamped on the job record, and (e) attached to the protocol trace —
// which, fetched THROUGH the gateway, covers all four DMW phases with
// intact parentage and renders as a waterfall.
func TestGatewayCorrelationAndTrace(t *testing.T) {
	var gwLogs, repLogs syncBuffer
	withLogs := func(cfg *server.Config) { cfg.Logger = slog.New(slog.NewJSONHandler(&repLogs, nil)) }
	reps := []*replica{startReplica(t, withLogs), startReplica(t, withLogs)}
	_, front := startGateway(t, reps, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewJSONHandler(&gwLogs, nil))
	})

	const rid = "req-obs-e2e-77"
	spec := tinySpec(700)
	spec.Trace = true
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderRequestID, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// (a) echoed to the client.
	if got := resp.Header.Get(obs.HeaderRequestID); got != rid {
		t.Errorf("gateway echoed request id %q, want %q", got, rid)
	}

	// Wait for completion through the gateway; the job record carries
	// the correlation ID end to end (d).
	status, raw := getJSON(t, front.URL+"/v1/jobs/"+view.ID+"?wait=30s")
	if status != http.StatusOK {
		t.Fatalf("wait: HTTP %d: %s", status, raw)
	}
	var done server.JobView
	if err := json.Unmarshal(raw, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != server.StateDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}
	if done.RequestID != rid {
		t.Errorf("job record request_id %q, want %q", done.RequestID, rid)
	}
	if !done.HasTrace {
		t.Error("job record has_trace false for traced submission")
	}

	// (e) trace via the gateway: all four DMW phases, intact parentage.
	resp, err = http.Get(front.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace via gateway: HTTP %d", resp.StatusCode)
	}
	spans, err := obs.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	ids := map[obs.SpanID]bool{}
	ridOnRoot := false
	for _, sp := range spans {
		ids[sp.ID] = true
		if ph := sp.Attr("phase"); ph != "" {
			phases[ph]++
		}
		if sp.Name == "job" && sp.Attr("request_id") == rid {
			ridOnRoot = true
		}
	}
	for _, ph := range []string{"I", "II", "III", "IV"} {
		if phases[ph] == 0 {
			t.Errorf("trace missing phase %s (got %v)", ph, phases)
		}
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %d (%s) has dangling parent %d", sp.ID, sp.Name, sp.Parent)
		}
	}
	if !ridOnRoot {
		t.Errorf("no job root span carries request_id=%s", rid)
	}
	var waterfall bytes.Buffer
	if err := obs.Waterfall(&waterfall, spans, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(waterfall.String(), "auction") {
		t.Errorf("waterfall render missing auction rows:\n%s", waterfall.String())
	}

	// (b) + (c): both layers logged the same correlation ID as JSON.
	for name, logs := range map[string]*syncBuffer{"gateway": &gwLogs, "replica": &repLogs} {
		text := logs.String()
		if !strings.Contains(text, rid) {
			t.Errorf("%s logs never mention request id %s:\n%s", name, rid, text)
		}
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			var obj map[string]any
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Errorf("%s log line not JSON: %q", name, line)
			}
		}
	}
	// The replica's job-done line carries it as the structured
	// request_id attribute, not just free text.
	if !strings.Contains(repLogs.String(), `"request_id":"`+rid+`"`) {
		t.Errorf("replica logs lack structured request_id attribute:\n%s", repLogs.String())
	}
}

// TestGatewayMetricsObservability pins the gateway's own exposition
// additions: per-backend request-latency histograms with the full
// histogram contract, dmwgw_build_info, and runtime gauges.
func TestGatewayMetricsObservability(t *testing.T) {
	reps := []*replica{startReplica(t)}
	_, front := startGateway(t, reps, nil)

	// Drive a few requests through the proxy so the histogram is hot.
	for i := 0; i < 4; i++ {
		status, body := postJSON(t, front.URL+"/v1/jobs", tinySpec(int64(900+i)))
		if status != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", status, body)
		}
	}

	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	text := string(body)

	if !strings.Contains(text, "dmwgw_build_info{version=") {
		t.Error("missing dmwgw_build_info")
	}
	for _, g := range []string{"dmwgw_go_goroutines ", "dmwgw_go_heap_bytes "} {
		if !strings.Contains(text, g) {
			t.Errorf("missing runtime gauge %s", g)
		}
	}
	// Per-backend latency histogram: cumulative buckets, +Inf == count,
	// at least the 4 submits observed.
	var inf, count float64
	var prev float64 = -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `dmwgw_backend_request_seconds_bucket{backend="rep0",le="`) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("bucket counts not cumulative at %q", line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		}
		if strings.HasPrefix(line, `dmwgw_backend_request_seconds_count{backend="rep0"}`) {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &count)
		}
	}
	if count < 4 {
		t.Errorf("backend request count %g, want >= 4", count)
	}
	if inf != count {
		t.Errorf("+Inf bucket %g != count %g", inf, count)
	}
}

// TestGatewayTailObservability pins the fleet's tail-observability
// chain over two replicas and a gateway sharing one objective: (a) the
// burn-rate gauges of both tiers and both replicas' scrape timings are
// on the fleet exposition, (b) a slow traced job's exemplar rides
// through the gateway's /metrics and its job ID fetches spans through
// the gateway, and (c) the gateway's /healthz carries the verdict.
func TestGatewayTailObservability(t *testing.T) {
	const objective = "p99<2s@30d"
	objectives, err := slo.Parse(objective)
	if err != nil {
		t.Fatal(err)
	}
	withSLO := func(cfg *server.Config) { cfg.SLOs = objectives }
	reps := []*replica{startReplica(t, withSLO), startReplica(t, withSLO)}
	_, front := startGateway(t, reps, func(cfg *Config) { cfg.SLOs = objectives })

	waitDone := func(id string) {
		t.Helper()
		status, body := getJSON(t, front.URL+"/v1/jobs/"+id+"?wait=30s")
		var view server.JobView
		if err := json.Unmarshal(body, &view); status != http.StatusOK || err != nil || view.State != server.StateDone {
			t.Fatalf("job %s: HTTP %d state %q: %s", id, status, view.State, body)
		}
	}
	submit := func(spec server.JobSpec) string {
		t.Helper()
		status, body := postJSON(t, front.URL+"/v1/jobs", spec)
		var view server.JobView
		if err := json.Unmarshal(body, &view); status != http.StatusAccepted || err != nil {
			t.Fatalf("submit: HTTP %d: %s", status, body)
		}
		return view.ID
	}
	// Plain jobs first, all finished, so none can overwrite the traced
	// job's exemplar: a bucket keeps its latest observation's exemplar,
	// and the 50 ms link delay puts the traced job in a bucket of its own.
	for i := 0; i < 6; i++ {
		waitDone(submit(tinySpec(int64(950 + i))))
	}
	slow := tinySpec(999)
	slow.Trace = true
	slow.LinkDelayMS = 50
	tracedID := submit(slow)
	waitDone(tracedID)

	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	text := string(body)

	// (a) Burn-rate gauges: the gateway's over the fleet-merged series,
	// the replicas' summed, and a scrape timing per replica.
	for _, want := range []string{
		`dmwgw_slo_burn_rate{objective="` + objective + `",window="5m"}`,
		`dmwgw_slo_compliant{objective="` + objective + `"}`,
		`dmwgw_fleet_request_seconds_count`,
		`dmwd_slo_burn_rate{objective="` + objective + `",window="5m"}`,
		`dmwgw_backend_scrape_seconds{backend="rep0"}`,
		`dmwgw_backend_scrape_seconds{backend="rep1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %s", want)
		}
	}

	// (b) The traced job's exemplar passes through the gateway, and its
	// job ID fetches the spans through the gateway.
	var traced *obs.Exemplar
	exs := obs.ParseExemplars(text, "dmwd_job_latency_seconds")
	for i := range exs {
		if exs[i].JobID == tracedID {
			traced = &exs[i]
		}
	}
	if traced == nil {
		t.Fatalf("no exemplar for traced job %s among %+v", tracedID, exs)
	}
	if !traced.Traced {
		t.Errorf("exemplar %+v not marked traced", *traced)
	}
	resp, err := http.Get(front.URL + "/v1/jobs/" + traced.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadJSONL(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(spans) == 0 {
		t.Fatalf("trace via gateway: HTTP %d, %d spans, err %v", resp.StatusCode, len(spans), err)
	}

	// (c) One SLO verdict on the gateway's /healthz.
	status, body = getJSON(t, front.URL+"/healthz")
	var health struct {
		SLO []slo.Verdict `json:"slo"`
	}
	if err := json.Unmarshal(body, &health); status != http.StatusOK || err != nil {
		t.Fatalf("healthz: HTTP %d: %s", status, body)
	}
	if len(health.SLO) != 1 || health.SLO[0].Objective != objective {
		t.Errorf("healthz SLO verdicts %+v, want one for %s", health.SLO, objective)
	}
}

// TestScrapeSkipsMalformedBackend pins the skip-and-count contract of
// the fleet aggregation: a backend whose /metrics body is malformed
// (here: truncated mid-line, a real failure mode of a dying replica)
// contributes NOTHING to the summed dmwd_* series — not even its
// well-formed lines — while the scrape-error counter records the skip
// and the healthy replica still aggregates.
func TestScrapeSkipsMalformedBackend(t *testing.T) {
	rep := startReplica(t)

	// A fake "replica" that passes health checks but serves a corrupt
	// exposition: valid counter lines followed by a truncated one. If
	// the parser were line-lenient, the 1000 below would poison the
	// fleet sum.
	malformed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","replica_id":"fake-1"}`)
		case "/metrics":
			fmt.Fprint(w, "dmwd_jobs_accepted_total 1000\ndmwd_jobs_completed_tot")
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(malformed.Close)

	g, front := startGateway(t, []*replica{rep}, func(cfg *Config) {
		cfg.Backends = append(cfg.Backends, Backend{Name: "bad", URL: malformed.URL})
	})

	// Run two jobs on the REAL replica directly (placement through the
	// gateway could land on the fake), so the fleet sum has a known
	// ground truth.
	for i := 0; i < 2; i++ {
		job, err := rep.srv.Submit(tinySpec(int64(40 + i)))
		if err != nil {
			t.Fatal(err)
		}
		job.WaitDone(30 * time.Second)
	}

	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	text := string(body)

	if !strings.Contains(text, "dmwgw_backends_scraped 1\n") {
		t.Errorf("want exactly 1 replica scraped:\n%s", grepLines(text, "dmwgw_backends_scraped"))
	}
	if got := metricValue(t, text, "dmwgw_backend_scrape_errors_total"); got < 1 {
		t.Errorf("scrape errors %g, want >= 1", got)
	}
	if got := metricValue(t, text, "dmwd_jobs_accepted_total"); got != 2 {
		t.Errorf("summed dmwd_jobs_accepted_total = %g, want 2 (malformed backend must not contribute)", got)
	}
	if got := g.metrics.scrapeErrors.Load(); got < 1 {
		t.Errorf("gateway scrapeErrors counter %d, want >= 1", got)
	}

	// Control: the same fleet with the fake gone scrapes cleanly and the
	// counter does not grow.
	errsBefore := g.metrics.scrapeErrors.Load()
	malformed.Close()
	_, _ = getJSON(t, front.URL+"/metrics")
	if got := g.metrics.scrapeErrors.Load(); got <= errsBefore {
		t.Errorf("closed backend should count as scrape error too: %d -> %d", errsBefore, got)
	}
}

// grepLines returns the lines of text containing needle, for failure
// messages that would otherwise dump the whole exposition.
func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
