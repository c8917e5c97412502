package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/group"
	"dmw/internal/server"
)

// replica is one in-process dmwd behind an httptest listener, with a
// kill switch that makes every request (including /healthz) fail so
// tests can exercise ejection and failover without real processes.
type replica struct {
	srv  *server.Server
	http *httptest.Server
	down atomic.Bool
}

func (r *replica) url() string { return r.http.URL }

func startReplica(t *testing.T) *replica {
	t.Helper()
	s, err := server.New(server.Config{
		Preset:     group.PresetTest64,
		QueueDepth: 128,
		Workers:    4,
		ResultTTL:  time.Minute,
		Limits:     server.Limits{MaxAgents: 16, MaxTasks: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	r := &replica{srv: s}
	inner := s.Handler()
	r.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r.down.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	t.Cleanup(func() {
		r.http.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return r
}

// startGateway builds a gateway over the replicas with fast health
// probing and returns it plus its HTTP front door.
func startGateway(t *testing.T, reps []*replica, tweak func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
	}
	for i, r := range reps {
		cfg.Backends = append(cfg.Backends, Backend{Name: fmt.Sprintf("rep%d", i), URL: r.url()})
	}
	if tweak != nil {
		tweak(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		front.Close()
		g.Close()
	})
	return g, front
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func tinySpec(seed int64) server.JobSpec {
	return server.JobSpec{
		Bids: [][]int{{1}, {3}, {2}, {3}},
		W:    []int{1, 2, 3},
		Seed: seed,
	}
}

// TestSubmitRoutesByRingAndReadsBack: jobs submitted through the
// gateway are placed deterministically on the ring owner, get a
// gateway-assigned ID when the client omits one, and are readable
// (to completion) through the gateway.
func TestSubmitRoutesByRingAndReadsBack(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t), startReplica(t)}
	g, front := startGateway(t, reps, nil)

	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		status, body := postJSON(t, front.URL+"/v1/jobs", tinySpec(int64(i)))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, status, body)
		}
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(view.ID, "gw-") {
			t.Fatalf("job id %q: want gateway-assigned gw- prefix", view.ID)
		}
		ids = append(ids, view.ID)
	}

	placed := make(map[string]int) // backend name -> jobs found there
	for _, id := range ids {
		// The job must live on exactly the replica the ring names.
		owner, ok := g.ring.Owner(id)
		if !ok {
			t.Fatal("empty ring")
		}
		ownerIdx := -1
		for i := range reps {
			if fmt.Sprintf("rep%d", i) == owner {
				ownerIdx = i
			}
		}
		if _, ok := reps[ownerIdx].srv.Get(id); !ok {
			t.Errorf("job %s not on its ring owner %s", id, owner)
		}
		placed[owner]++

		// And it must be readable through the gateway to completion.
		status, body := getJSON(t, front.URL+"/v1/jobs/"+id+"?wait=10s")
		if status != http.StatusOK {
			t.Fatalf("get %s: HTTP %d: %s", id, status, body)
		}
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.State != server.StateDone || view.Result == nil {
			t.Errorf("job %s state=%s result=%v; want done with result", id, view.State, view.Result != nil)
		}
	}
	if len(placed) < 2 {
		t.Errorf("all %d jobs landed on one replica (%v); ring should spread them", jobs, placed)
	}

	if _, err := http.Get(front.URL + "/v1/jobs/no-such-id"); err != nil {
		t.Fatal(err)
	}
	status, _ := getJSON(t, front.URL+"/v1/jobs/no-such-id")
	if status != http.StatusNotFound {
		t.Errorf("unknown id HTTP %d, want 404", status)
	}
}

// TestSubmitFailsOverToSuccessor: with one replica hard-down, every
// submission it owns still lands (on a ring successor) and reads find it.
func TestSubmitFailsOverToSuccessor(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	g, front := startGateway(t, reps, func(c *Config) {
		// Slow prober: this test exercises the per-request failover
		// path, before ejection rewires the ring.
		c.HealthInterval = time.Hour
	})
	reps[0].down.Store(true)

	const jobs = 8
	for i := 0; i < jobs; i++ {
		spec := tinySpec(int64(i))
		spec.ID = ownedID(t, g, "rep0", fmt.Sprintf("failover%d", i))
		status, body := postJSON(t, front.URL+"/v1/jobs", spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d with rep0 down: HTTP %d: %s", i, status, body)
		}
		status, body = getJSON(t, front.URL+"/v1/jobs/"+spec.ID+"?wait=10s")
		if status != http.StatusOK {
			t.Fatalf("read-back %s: HTTP %d: %s", spec.ID, status, body)
		}
		// Zero loss: the job is on the live replica itself.
		if status, body := getJSON(t, reps[1].url()+"/v1/jobs/"+spec.ID); status != http.StatusOK {
			t.Fatalf("%s on rep1: HTTP %d: %s", spec.ID, status, body)
		}
	}
	if got := g.metrics.failovers.Load(); got < jobs {
		t.Errorf("%d failovers recorded; every one of the %d jobs is owned by the down replica", got, jobs)
	}
}

// TestBatchScatterGather: a batch splits across replicas by ring
// placement and merges per-item results in input order, preserving
// dmwd's per-item accept/reject contract.
func TestBatchScatterGather(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t), startReplica(t)}
	g, front := startGateway(t, reps, nil)

	specs := make([]server.JobSpec, 0, 10)
	for i := 0; i < 9; i++ {
		sp := tinySpec(int64(100 + i))
		sp.ID = fmt.Sprintf("batch-%02d", i)
		specs = append(specs, sp)
	}
	specs = append(specs, server.JobSpec{Bids: [][]int{{1}}, W: []int{1, 2}}) // invalid: too few agents

	status, body := postJSON(t, front.URL+"/v1/jobs/batch", specs)
	if status != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", status, body)
	}
	var items []server.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != len(specs) {
		t.Fatalf("got %d items for %d specs", len(items), len(specs))
	}
	for i := 0; i < 9; i++ {
		if !items[i].Accepted || items[i].Job == nil || items[i].Job.ID != specs[i].ID {
			t.Errorf("item %d = %+v; want accepted job %s (in input order)", i, items[i], specs[i].ID)
		}
	}
	if items[9].Accepted || items[9].Error == "" {
		t.Errorf("invalid spec item = %+v; want per-item rejection", items[9])
	}
	if g.metrics.batchShards.Load() < 2 {
		t.Errorf("batch used %d shards; want the ring to scatter across >= 2 replicas", g.metrics.batchShards.Load())
	}

	// Every accepted job is on its ring owner, none duplicated.
	for i := 0; i < 9; i++ {
		owner, _ := g.ring.Owner(specs[i].ID)
		found := 0
		for j := range reps {
			if _, ok := reps[j].srv.Get(specs[i].ID); ok {
				found++
				if fmt.Sprintf("rep%d", j) != owner {
					t.Errorf("job %s on rep%d, ring owner is %s", specs[i].ID, j, owner)
				}
			}
		}
		if found != 1 {
			t.Errorf("job %s found on %d replicas, want exactly 1", specs[i].ID, found)
		}
	}
}

// TestHealthEjectionAndReadmission: a failing backend is ejected from
// the ring after FailAfter probes (placement shifts to survivors) and
// re-admitted once it recovers.
func TestHealthEjectionAndReadmission(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	g, front := startGateway(t, reps, nil)

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for " + what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	reps[0].down.Store(true)
	waitFor(func() bool { return g.ring.Len() == 1 }, "ejection")
	if g.backends["rep0"].up.Load() {
		t.Error("rep0 still marked up after ejection")
	}

	// While ejected, placement routes everything to rep1 directly (no
	// per-request failover needed).
	before := g.metrics.failovers.Load()
	for i := 0; i < 6; i++ {
		status, body := postJSON(t, front.URL+"/v1/jobs", tinySpec(int64(200+i)))
		if status != http.StatusAccepted {
			t.Fatalf("submit during ejection: HTTP %d: %s", status, body)
		}
	}
	if got := g.metrics.failovers.Load(); got != before {
		t.Errorf("failovers grew %d -> %d during ejection; placement should already avoid the dead replica", before, got)
	}

	// /healthz reflects the degraded fleet.
	status, body := getJSON(t, front.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz HTTP %d: %s", status, body)
	}
	var hv gatewayHealth
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "degraded" || len(hv.Backends) != 2 || hv.Backends[0].Up || !hv.Backends[1].Up {
		t.Errorf("healthz = %+v; want degraded with rep0 down, rep1 up", hv)
	}

	// The prober puts rep0 back on the ring before it counts the
	// re-admission, so wait for both; a counter that never moves times out.
	reps[0].down.Store(false)
	waitFor(func() bool { return g.ring.Len() == 2 && g.metrics.readmitted.Load() > 0 },
		"re-admission and the readmitted counter")
	status, _ = getJSON(t, front.URL+"/healthz")
	if status != http.StatusOK {
		t.Errorf("healthz after recovery HTTP %d", status)
	}
}

// TestMetricsAggregation: the gateway /metrics sums fleet counters and
// exposes per-backend up gauges.
func TestMetricsAggregation(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	_, front := startGateway(t, reps, nil)

	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		status, body := postJSON(t, front.URL+"/v1/jobs", tinySpec(int64(300+i)))
		if status != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", status, body)
		}
		var view server.JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	for _, id := range ids {
		if status, body := getJSON(t, front.URL+"/v1/jobs/"+id+"?wait=10s"); status != http.StatusOK {
			t.Fatalf("wait %s: HTTP %d: %s", id, status, body)
		}
	}

	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics HTTP %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"dmwgw_requests_total ",
		"dmwgw_backend_up{backend=\"rep0\"} 1",
		"dmwgw_backend_up{backend=\"rep1\"} 1",
		"dmwgw_backends_scraped 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if got := metricValue(t, text, "dmwd_jobs_accepted_total"); got != 8 {
		t.Errorf("summed dmwd_jobs_accepted_total = %g, want 8", got)
	}
	if got := metricValue(t, text, "dmwd_jobs_completed_total"); got != 8 {
		t.Errorf("summed dmwd_jobs_completed_total = %g, want 8", got)
	}
	if got := metricValue(t, text, "dmwd_workers"); got != 8 {
		t.Errorf("summed dmwd_workers = %g, want 8 (4 per replica)", got)
	}
	// Histogram buckets must aggregate and keep their +Inf tail.
	if !strings.Contains(text, "dmwd_job_latency_seconds_bucket{le=\"+Inf\"} 8") {
		t.Errorf("metrics missing aggregated +Inf bucket with count 8:\n%s", text)
	}
}

// metricValue extracts the value of an exact (unlabeled) series name.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("series %s not found in:\n%s", name, text)
	return 0
}

// TestIdempotentRetryAcrossReplicas: the same named spec submitted
// twice through the gateway resolves to one job, even when the second
// submission is forced to a different replica by an outage — the
// deterministic outcome makes the duplicate harmless and the read path
// still finds exactly one terminal answer.
func TestIdempotentRetryAcrossReplicas(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	_, front := startGateway(t, reps, func(c *Config) { c.HealthInterval = time.Hour })

	sp := tinySpec(7)
	sp.ID = "retry-1"
	status, body := postJSON(t, front.URL+"/v1/jobs", sp)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", status, body)
	}
	// Retry: same ID goes to the same ring owner, which dedupes.
	status, body = postJSON(t, front.URL+"/v1/jobs", sp)
	if status != http.StatusAccepted {
		t.Fatalf("retry submit: HTTP %d: %s", status, body)
	}
	status, body = getJSON(t, front.URL+"/v1/jobs/retry-1?wait=10s")
	if status != http.StatusOK {
		t.Fatalf("read: HTTP %d: %s", status, body)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != server.StateDone {
		t.Fatalf("state = %s, want done", view.State)
	}
	total := 0
	for _, r := range reps {
		if _, ok := r.srv.Get("retry-1"); ok {
			total++
		}
	}
	if total != 1 {
		t.Errorf("job on %d replicas after retry, want 1 (dedupe)", total)
	}
}
