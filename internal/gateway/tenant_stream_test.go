package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/tenant"
)

// TestBackpressure429IsDefinitive extends the 503-is-definitive
// contract to the tenant policy layer: a 429 is the owner's deliberate
// rate/quota answer. Failing it over would let a throttled tenant shop
// replicas for spare tokens, so the gateway must relay it — with the
// derived Retry-After untouched — after exactly one attempt.
func TestBackpressure429IsDefinitive(t *testing.T) {
	var hits atomic.Int64
	throttle := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"tenant acme: rate limit exceeded"}`)
	}
	b0 := fakeDmwd(t, "rid-0", throttle)
	b1 := fakeDmwd(t, "rid-1", throttle)
	g, front := gatewayOver(t, b0.URL, b1.URL)

	resp, err := http.Post(front.URL+"/v1/jobs", "application/json",
		jsonBody(t, tinySpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q (propagated unmodified)", got, "7")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("backends saw %d submissions, want exactly 1 (no failover on 429)", got)
	}
	if got := g.metrics.failovers.Load(); got != 0 {
		t.Errorf("failovers = %d, want 0", got)
	}
}

// TestTenantHeaderForwardedOnFailover: the tenant identity must ride
// EVERY backend attempt, including the failover retry after the first
// candidate errors — a successor admitting the retry as "default"
// would bypass the tenant's rate and quota accounting.
func TestTenantHeaderForwardedOnFailover(t *testing.T) {
	var firstSeen, secondSeen atomic.Value
	fail := func(w http.ResponseWriter, r *http.Request) {
		firstSeen.Store(r.Header.Get(tenant.HeaderTenantID))
		http.Error(w, "injected fault", http.StatusInternalServerError)
	}
	accept := func(w http.ResponseWriter, r *http.Request) {
		secondSeen.Store(r.Header.Get(tenant.HeaderTenantID))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"x","state":"queued","tenant":"acme"}`)
	}
	// Both orderings covered: whichever backend the ring picks first
	// fails, the other accepts.
	b0 := fakeDmwd(t, "rid-0", func(w http.ResponseWriter, r *http.Request) {
		if firstSeen.Load() == nil {
			fail(w, r)
		} else {
			accept(w, r)
		}
	})
	b1 := fakeDmwd(t, "rid-1", func(w http.ResponseWriter, r *http.Request) {
		if firstSeen.Load() == nil {
			fail(w, r)
		} else {
			accept(w, r)
		}
	})
	_, front := gatewayOver(t, b0.URL, b1.URL)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs", jsonBody(t, tinySpec(2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenant.HeaderTenantID, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d, want 202 after failover", resp.StatusCode)
	}
	if got, _ := firstSeen.Load().(string); got != "acme" {
		t.Errorf("first attempt carried tenant %q, want acme", got)
	}
	if got, _ := secondSeen.Load().(string); got != "acme" {
		t.Errorf("failover retry carried tenant %q, want acme (identity dropped)", got)
	}
}

// TestJobEventStreamRelay: the gateway relays a job's SSE stream from
// the replica that holds it (404s fall through to ring successors the
// same way job reads do) and the stream ends at the terminal event.
func TestJobEventStreamRelay(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	_, front := startGateway(t, reps, nil)

	spec := tinySpec(5)
	spec.ID = "evt-relay-1"
	status, body := postJSON(t, front.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", status, body)
	}

	resp, err := http.Get(front.URL + "/v1/jobs/evt-relay-1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}

	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad relayed event %q: %v", line, err)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading relayed stream: %v", err)
	}
	if len(types) == 0 || types[len(types)-1] != tenant.EventDone {
		t.Fatalf("relayed event types %v, want admitted..done", types)
	}

	// Unknown ID: every replica 404s, so the gateway answers 404.
	st, _ := getJSON(t, front.URL+"/v1/jobs/evt-nope/events")
	if st != http.StatusNotFound {
		t.Errorf("unknown job events: HTTP %d, want 404", st)
	}
}

// TestFirehoseMergesReplicas: the gateway firehose interleaves every
// replica's event stream; jobs landing on different replicas are both
// observed through one client connection.
func TestFirehoseMergesReplicas(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	_, front := startGateway(t, reps, nil)

	// Open the merged stream before submitting so no events race past.
	resp, err := http.Get(front.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose: HTTP %d", resp.StatusCode)
	}

	// Enough jobs that the ring statistically spreads them across both
	// replicas; completion is what the stream must show.
	const jobs = 8
	ids := make(map[string]bool, jobs)
	for i := 0; i < jobs; i++ {
		spec := tinySpec(int64(i))
		spec.ID = fmt.Sprintf("fh-merge-%d", i)
		status, body := postJSON(t, front.URL+"/v1/jobs", spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", i, status, body)
		}
		ids[spec.ID] = true
	}

	doneSeen := map[string]bool{}
	timer := time.AfterFunc(30*time.Second, func() { resp.Body.Close() })
	defer timer.Stop()
	sc := bufio.NewScanner(resp.Body)
	for len(doneSeen) < jobs && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad merged event %q: %v", line, err)
		}
		if ev.Type == tenant.EventDone && ids[ev.JobID] {
			doneSeen[ev.JobID] = true
		}
	}
	if len(doneSeen) != jobs {
		t.Fatalf("merged firehose delivered %d/%d done events: %v", len(doneSeen), jobs, doneSeen)
	}
}

// TestFleetMetricsSumTenantSeries: the gateway's generic dmwd_* series
// aggregation must sum the per-tenant labeled counters across replicas
// so one scrape answers "what did tenant X get fleet-wide".
func TestFleetMetricsSumTenantSeries(t *testing.T) {
	metricsBody := func(admitted int) string {
		return fmt.Sprintf("dmwd_jobs_accepted_total %d\ndmwd_tenant_admitted_total{tenant=\"acme\"} %d\n", admitted, admitted)
	}
	b0 := fakeDmwd(t, "rid-0", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, metricsBody(3))
			return
		}
		http.NotFound(w, r)
	})
	b1 := fakeDmwd(t, "rid-1", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, metricsBody(4))
			return
		}
		http.NotFound(w, r)
	})
	_, front := gatewayOver(t, b0.URL, b1.URL)

	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	if !strings.Contains(string(body), `dmwd_tenant_admitted_total{tenant="acme"} 7`) {
		t.Errorf("fleet metrics missing summed tenant series; body:\n%s", body)
	}
}
