package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmw/internal/audit"
)

func startHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := startServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (int, JobView, apiError) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	var apiErr apiError
	_ = json.Unmarshal(raw, &view)
	_ = json.Unmarshal(raw, &apiErr)
	return resp.StatusCode, view, apiErr
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil && err != io.EOF {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd is the acceptance scenario: POST 64 jobs
// concurrently over HTTP, wait for all of them via ?wait, check Vickrey
// outcomes, then verify /metrics is consistent with the submissions.
func TestHTTPEndToEnd(t *testing.T) {
	const jobs = 64
	_, ts := startHTTP(t, testConfig())

	// Explicit single-task matrices with a unique minimum, so the
	// Vickrey property (winner = lowest bid, payment = second lowest)
	// is directly checkable per job.
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			winner := k % 4
			bids := [][]int{{3}, {3}, {3}, {3}, {3}}
			bids[winner][0] = 1
			bids[(winner+1)%4][0] = 2
			for {
				status, view, apiErr := postJob(t, ts, JobSpec{
					Bids: bids, W: []int{1, 2, 3}, Seed: int64(k),
				})
				switch status {
				case http.StatusAccepted:
					ids[k] = view.ID
					return
				case http.StatusServiceUnavailable:
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("job %d: unexpected status %d (%s)", k, status, apiErr.Error)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for k, id := range ids {
		var view JobView
		status := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait=30s", &view)
		if status != http.StatusOK {
			t.Fatalf("job %d: GET status %d", k, status)
		}
		if view.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", k, view.State, view.Error)
		}
		winner := k % 4
		if got := view.Result.Schedule[0]; got != winner {
			t.Errorf("job %d: winner %d, want %d (lowest bid)", k, got, winner)
		}
		if got := view.Result.Payments[winner]; got != 2 {
			t.Errorf("job %d: payment %d, want 2 (second-lowest bid)", k, got)
		}
		if !view.Result.MatchesCentralized {
			t.Errorf("job %d: diverges from centralized MinWork", k)
		}
	}

	// Metrics consistency: accepted = completed = 64 (plus whatever was
	// rejected by backpressure), auctions = 64 tasks.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := parseMetrics(t, string(raw))
	if metrics["dmwd_jobs_accepted_total"] != jobs {
		t.Errorf("accepted %d, want %d", metrics["dmwd_jobs_accepted_total"], jobs)
	}
	if metrics["dmwd_jobs_completed_total"] != jobs {
		t.Errorf("completed %d, want %d", metrics["dmwd_jobs_completed_total"], jobs)
	}
	if metrics["dmwd_jobs_failed_total"] != 0 {
		t.Errorf("failed %d, want 0", metrics["dmwd_jobs_failed_total"])
	}
	if metrics["dmwd_auctions_run_total"] != jobs {
		t.Errorf("auctions %d, want %d", metrics["dmwd_auctions_run_total"], jobs)
	}
	if metrics["dmwd_job_latency_seconds_count"] != jobs {
		t.Errorf("latency count %d, want %d", metrics["dmwd_job_latency_seconds_count"], jobs)
	}
}

// parseMetrics reads the plain-text exposition into name -> value,
// skipping comments and labeled series.
func parseMetrics(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		out[name] = int64(f)
	}
	return out
}

// TestHTTPTranscript submits with record:true and verifies the
// transcript endpoint round-trips through the audit verifier.
func TestHTTPTranscript(t *testing.T) {
	s, ts := startHTTP(t, testConfig())

	status, view, apiErr := postJob(t, ts, JobSpec{
		Bids:   [][]int{{1, 2}, {2, 1}, {3, 3}, {2, 3}},
		W:      []int{1, 2, 3},
		Seed:   21,
		Record: true,
	})
	if status != http.StatusAccepted {
		t.Fatalf("status %d (%s)", status, apiErr.Error)
	}
	var done JobView
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=30s", &done); st != http.StatusOK || done.State != StateDone {
		t.Fatalf("status %d, state %s (%s)", st, done.State, done.Error)
	}
	if !done.HasTranscript {
		t.Fatal("view should report a transcript")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/transcript")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transcript status %d", resp.StatusCode)
	}
	env, err := audit.Load(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Params.Equal(s.params) {
		t.Error("envelope parameters differ from the server's")
	}
	report, err := audit.Verify(env.Params, env.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("transcript failed verification: %+v", report.Findings)
	}

	// A job without record has no transcript.
	status, view2, _ := postJob(t, ts, JobSpec{
		Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 4,
	})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+view2.ID+"?wait=30s", nil)
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view2.ID+"/transcript", nil); st != http.StatusNotFound {
		t.Errorf("transcript without record: status %d, want 404", st)
	}
}

// TestHTTPErrors covers the 4xx surface.
func TestHTTPErrors(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Unknown field (schema drift protection). max_price was a field
	// once: an old client's bid is refused, never silently ignored.
	for _, body := range []map[string]any{
		{"bogus_field": 1},
		{"bids": [][]int{{1}, {2}, {3}, {3}}, "w": []int{1, 2, 3}, "max_price": 0.5},
	} {
		if status, _, _ := postJob(t, ts, body); status != http.StatusBadRequest {
			t.Errorf("unknown field in %v: status %d, want 400", body, status)
		}
	}

	// Invalid spec.
	status, _, apiErr := postJob(t, ts, JobSpec{})
	if status != http.StatusBadRequest || apiErr.Error == "" {
		t.Errorf("invalid spec: status %d (%q), want 400 with message", status, apiErr.Error)
	}

	// Unknown job.
	if st := getJSON(t, ts.URL+"/v1/jobs/job-doesnotexist", nil); st != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", st)
	}
	if st := getJSON(t, ts.URL+"/v1/jobs/job-doesnotexist/transcript", nil); st != http.StatusNotFound {
		t.Errorf("unknown job transcript: status %d, want 404", st)
	}

	// Bad wait duration.
	status, view, _ := postJob(t, ts, JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 2})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=banana", nil); st != http.StatusBadRequest {
		t.Errorf("bad wait: status %d, want 400", st)
	}
}

// TestHTTPHealthzAndDrain checks /healthz flips to 503/draining after
// shutdown begins and that submissions then bounce with 503.
func TestHTTPHealthzAndDrain(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hv healthView
	if st := getJSON(t, ts.URL+"/healthz", &hv); st != http.StatusOK || hv.Status != "ok" {
		t.Fatalf("healthz: status %d, body %+v", st, hv)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if st := getJSON(t, ts.URL+"/healthz", &hv); st != http.StatusServiceUnavailable || hv.Status != "draining" {
		t.Errorf("healthz after drain: status %d, body %+v", st, hv)
	}
	status, view, _ := postJob(t, ts, JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 9})
	if status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", status)
	}
	if view.State != StateRejected {
		t.Errorf("submit while draining: state %s, want rejected", view.State)
	}
}

// TestHealthzReportsTableBuild: the health view and /metrics carry the
// boot-time table build cost.
func TestHealthzReportsTableBuild(t *testing.T) {
	_, ts := startHTTP(t, testConfig())
	var hv healthView
	if code := getJSON(t, ts.URL+"/healthz", &hv); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hv.TableBuildSeconds <= 0 {
		t.Errorf("table_build_seconds = %v, want positive", hv.TableBuildSeconds)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "dmwd_table_build_seconds") {
		t.Error("/metrics missing dmwd_table_build_seconds")
	}
}

// TestHTTPMetricsShape sanity-checks the exposition format.
func TestHTTPMetricsShape(t *testing.T) {
	_, ts := startHTTP(t, testConfig())
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"dmwd_jobs_accepted_total ",
		"dmwd_jobs_rejected_total ",
		"dmwd_jobs_completed_total ",
		"dmwd_jobs_failed_total ",
		"dmwd_auctions_run_total ",
		"dmwd_queue_depth ",
		"dmwd_workers ",
		"dmwd_draining 0",
		"dmwd_job_latency_seconds_bucket{le=\"+Inf\"} ",
		"dmwd_job_latency_seconds_count ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
}
