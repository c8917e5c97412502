package membership

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAgentAcquiresRenewsAndReleases(t *testing.T) {
	var acquires, releases atomic.Int64
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == LeasePath:
			var req LeaseRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Name != "n1" {
				t.Errorf("bad lease request: %v %+v", err, req)
			}
			acquires.Add(1)
			_ = json.NewEncoder(w).Encode(LeaseGrant{
				Epoch:       uint64(acquires.Load()),
				TTLMillis:   90, // renew at ~TTL/3 = 30ms
				Replication: 2,
				Peers:       []Peer{{Name: "n1", URL: "http://x:1", Weight: 1}},
			})
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, LeasePath+"/"):
			releases.Add(1)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	defer gw.Close()

	var grants atomic.Int64
	agent, err := NewAgent(AgentConfig{
		Gateways: []string{gw.URL},
		Name:     "n1",
		URL:      "http://x:1",
		OnGrant: func(gr LeaseGrant) {
			if gr.Replication != 2 || len(gr.Peers) != 1 {
				t.Errorf("grant %+v malformed", gr)
			}
			grants.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	deadline := time.Now().Add(5 * time.Second)
	for grants.Load() < 3 { // initial + at least two renewals
		if time.Now().After(deadline) {
			t.Fatalf("only %d grants observed", grants.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	agent.Stop()
	if releases.Load() != 1 {
		t.Fatalf("releases = %d, want 1 (graceful Stop issues DELETE)", releases.Load())
	}
	// Stop is idempotent.
	agent.Stop()
	if releases.Load() != 1 {
		t.Fatal("second Stop released again")
	}
}

func TestAgentRetriesAcrossGateways(t *testing.T) {
	// First gateway always refuses; the agent must fall through to the
	// second within one acquire pass.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	var grants atomic.Int64
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == LeasePath {
			_ = json.NewEncoder(w).Encode(LeaseGrant{Epoch: 1, TTLMillis: 200, Replication: 1})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer good.Close()

	agent, err := NewAgent(AgentConfig{
		Gateways: []string{bad.URL, good.URL},
		Name:     "n2",
		URL:      "http://x:2",
		OnGrant:  func(LeaseGrant) { grants.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	defer agent.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for grants.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never acquired via the fallback gateway")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAgentRenewsPastHungGateway: the first gateway on the list hangs
// for 5s on every call; the agent still renews at the second one every
// TTL/3, because each beat POSTs to both at once and waits for a
// straggler no longer than one renewal period.
func TestAgentRenewsPastHungGateway(t *testing.T) {
	const ttl = 900 * time.Millisecond
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			io.Copy(io.Discard, r.Body) // a drained request notices its client leaving
			select {
			case <-time.After(5 * time.Second):
			case <-r.Context().Done():
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hung.Close()
	var mu sync.Mutex
	var renewals []time.Time
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			renewals = append(renewals, time.Now())
			mu.Unlock()
			_ = json.NewEncoder(w).Encode(LeaseGrant{Epoch: 1, TTLMillis: ttl.Milliseconds(), Replication: 1})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer live.Close()

	var grants atomic.Int64
	agent, err := NewAgent(AgentConfig{
		Gateways: []string{hung.URL, live.URL},
		Name:     "n3",
		URL:      "http://x:3",
		OnGrant:  func(LeaseGrant) { grants.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(renewals)
	}
	for deadline := time.Now().Add(3 * time.Second); seen() < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d renewals reached the live gateway in 3s (TTL %s)", seen(), ttl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	agent.Stop()

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(renewals); i++ {
		if gap := renewals[i].Sub(renewals[i-1]); gap > ttl/3+100*time.Millisecond {
			t.Errorf("renewal %d came %s after the previous one, want about TTL/3 = %s", i, gap, ttl/3)
		}
	}
	if grants.Load() == 0 {
		t.Error("OnGrant never saw the live gateway's grant")
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(AgentConfig{Name: "x", URL: "http://x"}); err == nil {
		t.Error("no gateways accepted")
	}
	if _, err := NewAgent(AgentConfig{Gateways: []string{"http://g"}, URL: "http://x"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewAgent(AgentConfig{Gateways: []string{"http://g"}, Name: "x"}); err == nil {
		t.Error("empty URL accepted")
	}
}
