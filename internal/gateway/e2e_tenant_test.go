package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmw/internal/tenant"
)

// TestE2ETenantIsolationAndStreamSurvival is the tenancy acceptance
// scenario with REAL processes: two dmwd replicas carrying a tenants
// config behind an in-process gateway. A burst tenant hammers the
// fleet at well over its quota and degrades to per-tenant 429s; a
// steady tenant keeps landing 202s throughout (no global 503). One
// open gateway firehose observes job completions before AND after a
// replica SIGKILL, and the fleet /metrics scrape sums the per-tenant
// counters across replicas.
func TestE2ETenantIsolationAndStreamSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	// burst: 2 live jobs fleet-wide per replica; steady: unlimited.
	tenantsJSON := `{"tenants":{"burst":{"quota":2,"weight":1},"steady":{"quota":-1,"weight":3}}}`
	dirA, dirB := t.TempDir(), t.TempDir()
	childA := spawnChild(t, dirA, replicaTenantsEnv+"="+tenantsJSON)
	childB := spawnChild(t, dirB, replicaTenantsEnv+"="+tenantsJSON)

	g, err := New(Config{
		Backends: []Backend{
			{Name: "A", URL: childA.url},
			{Name: "B", URL: childB.url},
		},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  time.Second,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// One merged event stream, opened before any load; it must survive
	// the replica kill below.
	stream, err := http.Get(front.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("firehose: HTTP %d", stream.StatusCode)
	}

	submitAs := func(tenantID, id string, seed int64) (int, http.Header) {
		sp := tinySpec(seed)
		sp.ID = id
		if tenantID == "burst" {
			// Each round of a burst job waits 100 ms of real time, so every
			// admitted burst job is still live while the next submissions
			// arrive and quota 2 is exceeded however fast the host runs jobs.
			sp.LinkDelayMS = 100
		}
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/jobs", jsonBody(t, sp))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tenant.HeaderTenantID, tenantID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	// 4x overload from the burst tenant: 32 rapid-fire submissions
	// against a fleet-wide live budget of 4 (quota 2 per replica). The
	// overflow must come back as per-tenant 429s with backoff headers —
	// never as a global 503 or a failover-exhausted 502.
	burstAccepted, burstThrottled := 0, 0
	for i := 0; i < 32; i++ {
		status, hdr := submitAs("burst", fmt.Sprintf("e2e-burst-%03d", i), int64(i))
		switch status {
		case http.StatusAccepted:
			burstAccepted++
		case http.StatusTooManyRequests:
			burstThrottled++
			if hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submit %d: HTTP %d (tenant overload must not go global)", i, status)
		}
	}
	if burstThrottled == 0 {
		t.Fatalf("burst tenant saw no 429s across 32 submissions (accepted %d); quota not enforced", burstAccepted)
	}

	// The steady tenant is untouched by burst's throttling.
	var steadyIDs []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("e2e-steady-%03d", i)
		status, _ := submitAs("steady", id, int64(100+i))
		if status != http.StatusAccepted {
			t.Fatalf("steady submit %d: HTTP %d, want 202 while burst is throttled", i, status)
		}
		steadyIDs = append(steadyIDs, id)
	}

	// SIGKILL one replica, then keep submitting: failover admits the
	// steady tenant's jobs on the survivor.
	childB.kill()
	for i := 6; i < 10; i++ {
		id := fmt.Sprintf("e2e-steady-%03d", i)
		deadline := time.Now().Add(30 * time.Second)
		for {
			status, _ := submitAs("steady", id, int64(100+i))
			if status == http.StatusAccepted {
				steadyIDs = append(steadyIDs, id)
				break
			}
			// 502 while the prober converges on the dead replica is the
			// documented retry contract; anything else is a bug.
			if status != http.StatusBadGateway && status != http.StatusServiceUnavailable {
				t.Fatalf("post-kill steady submit: HTTP %d", status)
			}
			if time.Now().After(deadline) {
				t.Fatal("post-kill steady submissions never landed")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// The firehose opened before the kill must deliver done events for
	// steady jobs submitted both before and after it. (Jobs that landed
	// on the killed replica die with it — only the survivor's deliveries
	// are guaranteed, which the post-kill submissions all are.)
	wantDone := map[string]bool{}
	for _, id := range steadyIDs[6:] {
		wantDone[id] = true
	}
	gotDone := map[string]bool{}
	timer := time.AfterFunc(60*time.Second, func() { stream.Body.Close() })
	defer timer.Stop()
	sc := bufio.NewScanner(stream.Body)
	for len(gotDone) < len(wantDone) && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad firehose event %q: %v", line, err)
		}
		if ev.Tenant == "burst" && ev.Type == tenant.EventAdmitted && !strings.HasPrefix(ev.JobID, "e2e-burst-") {
			t.Errorf("burst admitted an unexpected job %s", ev.JobID)
		}
		if ev.Type == tenant.EventDone && wantDone[ev.JobID] {
			gotDone[ev.JobID] = true
		}
	}
	if len(gotDone) < len(wantDone) {
		t.Fatalf("firehose delivered %d/%d post-kill steady completions: %v",
			len(gotDone), len(wantDone), gotDone)
	}

	// Fleet metrics: per-tenant counters from the surviving replica sum
	// into the gateway exposition.
	status, body := getJSON(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("fleet metrics: HTTP %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`dmwd_tenant_admitted_total{tenant="steady"}`,
		`dmwd_tenant_admitted_total{tenant="burst"}`,
		`dmwd_tenant_rejected_total{tenant="burst",reason="quota"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
	t.Logf("burst: %d accepted / %d throttled; steady: %d accepted; firehose survived the kill",
		burstAccepted, burstThrottled, len(steadyIDs))
}
