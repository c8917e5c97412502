package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmw/internal/obs"
)

// parseExposition reads the plain-text metrics body into full-series
// (labels included) -> value, failing the test on any malformed line —
// these tests ARE the parser the exposition format promises to satisfy.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// histSeries extracts one histogram's buckets from the exposition:
// (ascending bounds, cumulative counts, +Inf count, _sum, _count).
// labels is the constant-label block without le (e.g. `phase="bidding"`),
// empty for an unlabeled histogram.
func histSeries(t *testing.T, series map[string]float64, name, labels string) (bounds []float64, cum []float64, inf, sum, count float64) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	prefix := name + "_bucket{" + labels + sep + `le="`
	type bk struct{ bound, val float64 }
	var bks []bk
	for k, v := range series {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, `"}`) {
			continue
		}
		le := k[len(prefix) : len(k)-len(`"}`)]
		if le == "+Inf" {
			inf = v
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("series %q: bad le bound: %v", k, err)
		}
		bks = append(bks, bk{f, v})
	}
	if len(bks) == 0 {
		t.Fatalf("no %s buckets with labels %q", name, labels)
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].bound < bks[j].bound })
	for _, b := range bks {
		bounds = append(bounds, b.bound)
		cum = append(cum, b.val)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	var ok bool
	if sum, ok = series[name+"_sum"+suffix]; !ok {
		t.Fatalf("missing %s_sum%s", name, suffix)
	}
	if count, ok = series[name+"_count"+suffix]; !ok {
		t.Fatalf("missing %s_count%s", name, suffix)
	}
	return bounds, cum, inf, sum, count
}

// assertHistogramContract pins the Prometheus-text histogram shape the
// scrapers (and the gateway's summing aggregation) rely on: buckets
// cumulative and non-decreasing, the +Inf bucket present and equal to
// _count, and _sum consistent with the observed bucket mass.
func assertHistogramContract(t *testing.T, series map[string]float64, name, labels string) (sum, count float64) {
	t.Helper()
	_, cum, inf, sum, count := histSeries(t, series, name, labels)
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("%s{%s}: bucket %d count %g < previous %g — not cumulative", name, labels, i, cum[i], cum[i-1])
		}
	}
	if inf < cum[len(cum)-1] {
		t.Errorf("%s{%s}: +Inf bucket %g below last finite bucket %g", name, labels, inf, cum[len(cum)-1])
	}
	if inf != count {
		t.Errorf("%s{%s}: +Inf bucket %g != _count %g", name, labels, inf, count)
	}
	if sum < 0 {
		t.Errorf("%s{%s}: negative _sum %g", name, labels, sum)
	}
	if count == 0 && sum != 0 {
		t.Errorf("%s{%s}: zero observations but _sum %g", name, labels, sum)
	}
	return sum, count
}

// submitAndWait runs count jobs through the server and waits for each.
func submitAndWait(t *testing.T, s *Server, count int, trace bool) []*Job {
	t.Helper()
	jobs := make([]*Job, count)
	for k := 0; k < count; k++ {
		bids := [][]int{{3, 3}, {3, 2}, {3, 3}, {2, 3}}
		bids[k%4][0] = 1
		job, err := s.Submit(JobSpec{Bids: bids, W: []int{1, 2, 3}, Seed: int64(k), Trace: trace})
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		jobs[k] = job
	}
	for k, job := range jobs {
		job.WaitDone(30 * time.Second)
		if st := job.State(); st != StateDone {
			t.Fatalf("job %d: state %s", k, st)
		}
	}
	return jobs
}

// TestMetricsHistogramContract is the parser-style exposition test: it
// runs real jobs, scrapes /metrics, and asserts the histogram contract
// (cumulative buckets, +Inf == _count, _sum/_count present) for the
// job-latency histogram AND every dmwd_phase_seconds phase, plus the
// presence of the build-info gauge and runtime gauges.
func TestMetricsHistogramContract(t *testing.T) {
	const jobs = 8
	s, ts := startHTTP(t, testConfig())
	submitAndWait(t, s, jobs, false)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parseExposition(t, string(raw))

	_, latCount := assertHistogramContract(t, series, "dmwd_job_latency_seconds", "")
	if latCount != jobs {
		t.Errorf("latency count %g, want %d", latCount, jobs)
	}
	for _, phase := range phaseOrder {
		_, c := assertHistogramContract(t, series, "dmwd_phase_seconds", `phase="`+phase+`"`)
		if c != jobs {
			t.Errorf("phase %q count %g, want %d", phase, c, jobs)
		}
	}

	// Build info: one gauge valued 1, carrying version + go_version +
	// replica identity labels.
	foundBuild := false
	for k, v := range series {
		if strings.HasPrefix(k, "dmwd_build_info{") {
			foundBuild = true
			if v != 1 {
				t.Errorf("build_info = %g, want 1", v)
			}
			for _, lbl := range []string{`version="`, `go_version="`, `replica_id="`} {
				if !strings.Contains(k, lbl) {
					t.Errorf("build_info %q missing label %s", k, lbl)
				}
			}
		}
	}
	if !foundBuild {
		t.Error("no dmwd_build_info series")
	}
	// Runtime gauges ride along on every scrape.
	for _, g := range []string{"dmwd_go_goroutines", "dmwd_go_heap_bytes", "dmwd_go_gc_runs_total"} {
		if _, ok := series[g]; !ok {
			t.Errorf("missing runtime gauge %s", g)
		}
	}
}

// TestFixedBoundHistogramsGolden pins the exposition of the three series
// that keep hand-picked bounds (they moved from the retired fixed-bucket
// type to obs.HDR over the same bounds): exactly these le labels in
// this order, le the only label, +Inf == _count, fixed-point _sum, and
// no exemplar lines — dashboards and the gateway's fleet sum key on it.
func TestFixedBoundHistogramsGolden(t *testing.T) {
	s, ts := startHTTP(t, testConfig())
	pow2 := []string{"1", "2", "4", "8", "16", "32", "64", "128", "256"}
	golden := []struct {
		name string
		h    *obs.HDR
		obs  []float64
		le   []string
		sum  string
	}{
		{"dmwd_replica_push_seconds", s.metrics.replicaPush, []float64{0.0001, 0.003, 45},
			[]string{"0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "30"}, "45.003100"},
		{"dmwd_replica_push_batch_size", s.metrics.replicaPushBatch, []float64{1, 5, 300}, pow2, "306.000000"},
		{"dmwd_replica_accept_batch_size", s.metrics.replicaAcceptBatch, []float64{1, 2, 256}, pow2, "259.000000"},
	}
	for _, g := range golden {
		for _, v := range g.obs {
			g.h.Observe(v)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(string(raw), "\n")
	series := parseExposition(t, string(raw))
	for _, g := range golden {
		var got []string
		for _, line := range lines {
			if rest, ok := strings.CutPrefix(line, g.name+`_bucket{le="`); ok {
				le, _, _ := strings.Cut(rest, `"} `)
				got = append(got, le)
			}
			if strings.HasPrefix(line, obs.ExemplarPrefix+g.name+"{") {
				t.Errorf("%s: unexpected exemplar line %q", g.name, line)
			}
		}
		if want := append(slices.Clone(g.le), "+Inf"); !slices.Equal(got, want) {
			t.Errorf("%s: le labels\n got  %v\n want %v", g.name, got, want)
		}
		_, count := assertHistogramContract(t, series, g.name, "")
		if count != float64(len(g.obs)) {
			t.Errorf("%s: _count %g, want %d", g.name, count, len(g.obs))
		}
		// Each first observation equals the first bound: le is inclusive.
		if first := series[g.name+`_bucket{le="`+g.le[0]+`"}`]; first != 1 {
			t.Errorf("%s: le=%s bucket holds %g, want 1 (the observation equal to the bound)", g.name, g.le[0], first)
		}
		if !strings.Contains(string(raw), g.name+"_sum "+g.sum+"\n") {
			t.Errorf("%s: want _sum line %q", g.name, g.name+"_sum "+g.sum)
		}
	}
}

// TestPhaseSecondsSumToLatency pins the partition property end to end:
// the per-phase histograms (queue_wait + the five protocol segments)
// sum — within measurement tolerance — to the end-to-end job latency
// histogram. If a phase segment is dropped or double-counted, the two
// sides drift apart and this fails.
func TestPhaseSecondsSumToLatency(t *testing.T) {
	const jobs = 12
	s, ts := startHTTP(t, testConfig())
	submitAndWait(t, s, jobs, false)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parseExposition(t, string(raw))

	var phaseSum float64
	for _, phase := range phaseOrder {
		s, _ := assertHistogramContract(t, series, "dmwd_phase_seconds", `phase="`+phase+`"`)
		phaseSum += s
	}
	latSumSec, _ := assertHistogramContract(t, series, "dmwd_job_latency_seconds", "")

	// The phases partition each job's latency minus only the store
	// writes between segments (microseconds on the in-memory store) and
	// the _sum quantization (1µs per observation). Allow generous slack
	// for CI scheduling noise, but insist the two sides agree to better
	// than 25% + 5ms-per-job.
	tol := 0.25*latSumSec + 0.005*jobs
	if diff := math.Abs(latSumSec - phaseSum); diff > tol {
		t.Errorf("phase sum %.6fs vs latency sum %.6fs: differ by %.6fs (tolerance %.6fs)",
			phaseSum, latSumSec, diff, tol)
	}
	// And the partition never exceeds the whole by more than quantization.
	if phaseSum > latSumSec+1e-3*jobs {
		t.Errorf("phase sum %.6fs exceeds latency sum %.6fs", phaseSum, latSumSec)
	}
}

// TestHTTPTraceEndpoint drives the trace surface over HTTP: a job
// submitted with trace:true serves a JSONL span stream covering every
// DMW phase with intact parentage; one submitted without gets a 404.
func TestHTTPTraceEndpoint(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	// Traced job.
	status, view, apiErr := postJob(t, ts, JobSpec{
		Bids: [][]int{{3, 3}, {1, 2}, {2, 3}, {3, 3}}, W: []int{1, 2, 3}, Seed: 9, Trace: true,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", status, apiErr.Error)
	}
	var done JobView
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=30s", &done); st != http.StatusOK || done.State != StateDone {
		t.Fatalf("job: HTTP %d state %s", st, done.State)
	}
	if !done.HasTrace {
		t.Error("job view has_trace false for traced job")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("trace Content-Type %q", ct)
	}
	spans, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	ids := map[obs.SpanID]bool{}
	var roots int
	for _, sp := range spans {
		ids[sp.ID] = true
		if ph := sp.Attr("phase"); ph != "" {
			phases[ph] = true
		}
		if sp.Parent == 0 {
			roots++
		}
	}
	for _, ph := range []string{"I", "II", "III", "IV"} {
		if !phases[ph] {
			t.Errorf("trace missing phase %s spans (got %v)", ph, phases)
		}
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %d (%s) has dangling parent %d", sp.ID, sp.Name, sp.Parent)
		}
	}
	if roots == 0 {
		t.Error("no root span in trace")
	}
	// The JSONL round-trips through the dmwtrace renderer.
	var buf bytes.Buffer
	if err := obs.Waterfall(&buf, spans, 40); err != nil {
		t.Fatalf("waterfall render: %v", err)
	}
	if !strings.Contains(buf.String(), "auction") {
		t.Errorf("waterfall missing auction spans:\n%s", buf.String())
	}

	// Untraced job: 404 with guidance.
	status, view2, _ := postJob(t, ts, JobSpec{Bids: [][]int{{3}, {1}, {2}, {3}}, W: []int{1, 2, 3}, Seed: 10})
	if status != http.StatusAccepted {
		t.Fatalf("submit untraced: HTTP %d", status)
	}
	var done2 JobView
	getJSON(t, ts.URL+"/v1/jobs/"+view2.ID+"?wait=30s", &done2)
	var traceErr apiError
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view2.ID+"/trace", &traceErr); st != http.StatusNotFound {
		t.Fatalf("untraced trace: HTTP %d, want 404", st)
	}
	if !strings.Contains(traceErr.Error, "trace") {
		t.Errorf("untraced trace error %q lacks guidance", traceErr.Error)
	}
}

// TestRequestIDPropagation pins the correlation contract at the dmwd
// layer: an inbound X-Request-Id is echoed on the response, stamped
// onto the job record (visible in the job view), and a missing or
// invalid one is replaced with a generated ID rather than trusted.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	body, _ := json.Marshal(JobSpec{Bids: [][]int{{3}, {1}, {2}, {3}}, W: []int{1, 2, 3}, Seed: 3})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set(obs.HeaderRequestID, "req-obs-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got != "req-obs-test-42" {
		t.Errorf("echoed request id %q, want req-obs-test-42", got)
	}
	if view.RequestID != "req-obs-test-42" {
		t.Errorf("job view request_id %q, want req-obs-test-42", view.RequestID)
	}
	var done JobView
	getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=30s", &done)
	if done.RequestID != "req-obs-test-42" {
		t.Errorf("completed job request_id %q, want req-obs-test-42", done.RequestID)
	}

	// A hostile header (spaces, control bytes) is replaced, not echoed.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req2.Header.Set(obs.HeaderRequestID, "bad id\twith spaces")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	got := resp2.Header.Get(obs.HeaderRequestID)
	if got == "" || strings.ContainsAny(got, " \t") {
		t.Errorf("sanitized request id %q still hostile", got)
	}
}
