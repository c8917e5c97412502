package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/server"
)

// jsonBody marshals v for a request body.
func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// fakeDmwd is a scripted backend: /healthz always answers ok (so the
// prober never ejects it), everything else goes to handler.
func fakeDmwd(t *testing.T, name string, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"replica_id\":%q}", name)
	})
	mux.HandleFunc("/", handler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// gatewayOver builds a gateway (plus HTTP front door) over raw backend
// URLs with probing effectively disabled.
func gatewayOver(t *testing.T, urls ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		HealthInterval: time.Hour,
		RequestTimeout: 10 * time.Second,
	}
	for i, u := range urls {
		cfg.Backends = append(cfg.Backends, Backend{Name: fmt.Sprintf("fake%d", i), URL: u})
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

// TestBackpressure503IsDefinitive: a 503 from the ring owner is dmwd's
// explicit queue-full/draining answer — the owner has already journaled
// a rejected record for the ID. The gateway must relay it (with
// Retry-After) rather than fail the submit over to a successor, which
// would run the job elsewhere while the owner keeps the rejection.
func TestBackpressure503IsDefinitive(t *testing.T) {
	var hits atomic.Int64
	reject := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"id":"x","state":"rejected","error":"queue full"}`)
	}
	b0 := fakeDmwd(t, "rid-0", reject)
	b1 := fakeDmwd(t, "rid-1", reject)
	g, front := gatewayOver(t, b0.URL, b1.URL)

	resp, err := http.Post(front.URL+"/v1/jobs", "application/json",
		jsonBody(t, tinySpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("backends saw %d submissions, want exactly 1 (no failover on 503)", got)
	}
	if got := g.metrics.failovers.Load(); got != 0 {
		t.Errorf("failovers = %d, want 0", got)
	}
}

// TestReadWithUnreachableOwnerIs502Not404: while a replica that may
// durably hold the job is unreachable, a read of an unknown-to-the-
// survivors ID must NOT claim the ID is unknown (404 reads as data
// loss); it must fail 5xx so the client retries after the owner
// returns.
func TestReadWithUnreachableOwnerIs502Not404(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t)}
	_, front := startGateway(t, reps, func(c *Config) {
		c.HealthInterval = time.Hour // no ejection: exercise the walk itself
	})
	reps[0].down.Store(true)

	status, body := getJSON(t, front.URL+"/v1/jobs/acknowledged-but-away")
	if status == http.StatusNotFound {
		t.Fatalf("got 404 with one replica unreachable; want 5xx (body %s)", body)
	}
	if status != http.StatusBadGateway {
		t.Fatalf("HTTP %d: %s, want 502", status, body)
	}

	// Once every replica answers, a genuinely unknown ID is a clean 404.
	reps[0].down.Store(false)
	status, body = getJSON(t, front.URL+"/v1/jobs/acknowledged-but-away")
	if status != http.StatusNotFound {
		t.Fatalf("HTTP %d: %s, want 404 when every replica answered", status, body)
	}
}

// TestOversizedBackendResponseIs502: a backend body that exceeds the
// relay bound must surface as a backend error, never as a silently
// truncated 200 handing the client corrupt JSON.
func TestOversizedBackendResponseIs502(t *testing.T) {
	big := fakeDmwd(t, "rid-big", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(make([]byte, maxRelayBytes+1))
	})
	_, front := gatewayOver(t, big.URL)

	status, body := getJSON(t, front.URL+"/v1/jobs/huge")
	if status != http.StatusBadGateway {
		t.Fatalf("HTTP %d, want 502 for oversized backend response", status)
	}
	if len(body) > 1<<16 {
		t.Errorf("error body is %d bytes; the oversized payload leaked through", len(body))
	}
}

// TestReadWaitAllowance: the proxy deadline grows by the poll dmwd will
// actually hold — the client's wait, clamped to server.MaxWait like dmwd
// clamps it — and by nothing for a wait dmwd refuses or ignores.
func TestReadWaitAllowance(t *testing.T) {
	for wait, want := range map[string]time.Duration{
		"":     0,
		"-1s":  0,
		"10s":  10 * time.Second,
		"30s":  server.MaxWait,
		"2m":   server.MaxWait,
		"junk": 0,
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/x?wait="+wait, nil)
		if got := readWaitAllowance(r); got != want {
			t.Errorf("wait=%q: allowance %v, want %v", wait, got, want)
		}
	}
}

// TestLongPollPastServerCapIsServed: dmwd serves ?wait=2m as its 30s
// cap, so through a gateway whose RequestTimeout is far shorter than
// the job, ?wait=2m must ride out a running job exactly like ?wait=30s
// does — it used to get no allowance at all and answer 502.
func TestLongPollPastServerCapIsServed(t *testing.T) {
	rep := startReplica(t)
	_, front := startGateway(t, []*replica{rep}, func(c *Config) {
		c.RequestTimeout = 300 * time.Millisecond
	})
	for i, wait := range []string{"30s", "2m"} {
		spec := tinySpec(int64(90 + i))
		spec.ID = "longpoll-" + wait
		spec.LinkDelayMS = 150 // several rounds: the job outlives RequestTimeout
		if status, body := postJSON(t, front.URL+"/v1/jobs", spec); status != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", status, body)
		}
		start := time.Now()
		status, body := getJSON(t, front.URL+"/v1/jobs/"+spec.ID+"?wait="+wait)
		var view server.JobView
		if err := json.Unmarshal(body, &view); status != http.StatusOK || err != nil || view.State != server.StateDone {
			t.Errorf("wait=%s: HTTP %d %s, want 200 with the finished job", wait, status, body)
		}
		if held := time.Since(start); held <= 300*time.Millisecond {
			t.Errorf("wait=%s: answered after %v; the job did not outlive RequestTimeout, nothing was tested", wait, held)
		}
	}
}
