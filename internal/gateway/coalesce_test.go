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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/group"
	"dmw/internal/server"
	"dmw/internal/tenant"
)

// startTenantReplica is startReplica with a tenant policy installed.
func startTenantReplica(t *testing.T, tenants tenant.Config) *replica {
	t.Helper()
	s, err := server.New(server.Config{
		Preset:     group.PresetTest64,
		QueueDepth: 128,
		Workers:    4,
		ResultTTL:  time.Minute,
		Limits:     server.Limits{MaxAgents: 16, MaxTasks: 8},
		Tenants:    tenants,
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
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return r
}

// postSpec fires one submit and returns the full response.
func postSpec(t *testing.T, url string, spec server.JobSpec, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCoalescedSubmitSemantics is the semantics matrix for the submit
// coalescer: everything a client could observe through the coalesced
// path must be indistinguishable from the direct path.
func TestCoalescedSubmitSemantics(t *testing.T) {
	t.Run("concurrent submits coalesce and all land", func(t *testing.T) {
		rep := startReplica(t)
		g, front := startGateway(t, []*replica{rep}, func(c *Config) {
			c.CoalesceWindow = 150 * time.Millisecond
		})
		const n = 8
		var wg sync.WaitGroup
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := tinySpec(int64(500 + i))
				sp.ID = fmt.Sprintf("co-%02d", i)
				ids[i] = sp.ID
				resp := postSpec(t, front.URL, sp, nil)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
					return
				}
				var view server.JobView
				if err := json.Unmarshal(body, &view); err != nil || view.ID != sp.ID {
					t.Errorf("submit %d answered %s (err %v); want its own job view", i, body, err)
				}
			}(i)
		}
		wg.Wait()
		if g.metrics.coalesceFlushes.Load() == 0 {
			t.Error("no coalesced flush dispatched for 8 concurrent submits")
		}
		if g.metrics.coalescedSubmits.Load() < 2 {
			t.Error("submits never shared a flush")
		}
		// Zero acknowledged loss: every 202'd job is on the replica.
		for _, id := range ids {
			if _, ok := rep.srv.Get(id); !ok {
				t.Errorf("acknowledged job %s not on the replica", id)
			}
		}
	})

	t.Run("idempotent resubmit through coalesced window", func(t *testing.T) {
		rep := startReplica(t)
		_, front := startGateway(t, []*replica{rep}, func(c *Config) {
			c.CoalesceWindow = 150 * time.Millisecond
		})
		sp := tinySpec(41)
		sp.ID = "co-idem"
		// First submission, then a concurrent resubmit racing a fresh job
		// through the same window: both must answer 202 and exactly one
		// job record may exist.
		resp := postSpec(t, front.URL, sp, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: HTTP %d", resp.StatusCode)
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				spec := sp // resubmit of the same ID
				if i > 0 {
					spec = tinySpec(int64(600 + i))
					spec.ID = fmt.Sprintf("co-idem-other-%d", i)
				}
				resp := postSpec(t, front.URL, spec, nil)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %s: HTTP %d: %s", spec.ID, resp.StatusCode, body)
				}
			}(i)
		}
		wg.Wait()
		for _, id := range []string{"co-idem", "co-idem-other-1", "co-idem-other-2"} {
			if _, ok := rep.srv.Get(id); !ok {
				t.Errorf("job %s missing after the mixed resubmit window", id)
			}
		}
	})

	t.Run("duplicate ID inside one window diverts to direct", func(t *testing.T) {
		rep := startReplica(t)
		_, front := startGateway(t, []*replica{rep}, func(c *Config) {
			c.CoalesceWindow = 200 * time.Millisecond
		})
		sp := tinySpec(42)
		sp.ID = "co-dup"
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := postSpec(t, front.URL, sp, nil)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("duplicate submit: HTTP %d: %s", resp.StatusCode, body)
				}
			}()
		}
		wg.Wait()
		if _, ok := rep.srv.Get("co-dup"); !ok {
			t.Error("job co-dup missing after duplicate submits")
		}
	})

	t.Run("tenant identity preserved per item", func(t *testing.T) {
		rep := startTenantReplica(t, tenant.Config{Default: tenant.Unlimited})
		_, front := startGateway(t, []*replica{rep}, func(c *Config) {
			c.CoalesceWindow = 150 * time.Millisecond
		})
		tenants := []string{"acme", "globex", "initech"}
		var wg sync.WaitGroup
		for i, tid := range tenants {
			wg.Add(1)
			go func(i int, tid string) {
				defer wg.Done()
				sp := tinySpec(int64(700 + i))
				sp.ID = "co-tenant-" + tid
				resp := postSpec(t, front.URL, sp, map[string]string{tenant.HeaderTenantID: tid})
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("tenant %s: HTTP %d: %s", tid, resp.StatusCode, body)
					return
				}
				var view server.JobView
				if err := json.Unmarshal(body, &view); err != nil {
					t.Errorf("tenant %s: %v", tid, err)
					return
				}
				if view.Tenant != tid {
					t.Errorf("job %s admitted as tenant %q, want %q — identity leaked across the coalesced batch", view.ID, view.Tenant, tid)
				}
			}(i, tid)
		}
		wg.Wait()
	})

	t.Run("owner death mid-flush fails over per item with zero loss", func(t *testing.T) {
		reps := []*replica{startReplica(t), startReplica(t)}
		g, front := startGateway(t, reps, func(c *Config) {
			c.CoalesceWindow = 150 * time.Millisecond
			c.HealthInterval = time.Hour // per-request failover, not ejection
		})
		reps[0].down.Store(true)
		const n = 6
		var wg sync.WaitGroup
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := tinySpec(int64(800 + i))
				sp.ID = fmt.Sprintf("co-death-%02d", i)
				ids[i] = sp.ID
				resp := postSpec(t, front.URL, sp, nil)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %d with rep0 down: HTTP %d: %s", i, resp.StatusCode, body)
				}
			}(i)
		}
		wg.Wait()
		// Every acknowledged job must exist on the survivor: a flush whose
		// owner died fell back to per-item direct submits with failover.
		for _, id := range ids {
			if _, ok := reps[1].srv.Get(id); !ok {
				if _, ok := reps[0].srv.Get(id); !ok {
					t.Errorf("acknowledged job %s lost after mid-flush backend death", id)
				}
			}
		}
		_ = g
	})
}

// TestCoalescedMixedOutcomeRetryAfter pins satellite fidelity: when one
// flush carries a throttled tenant's submit AND an accepted one, the
// 429 waiter sees ITS item's derived Retry-After / admission price (the
// refusing token bucket's own numbers), never anything from the batch
// envelope, and the accepted waiter sees a clean 202.
func TestCoalescedMixedOutcomeRetryAfter(t *testing.T) {
	rep := startTenantReplica(t, tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"slow": {Rate: 1, Burst: 1, Quota: -1, Weight: 1}},
	})
	g, front := startGateway(t, []*replica{rep}, func(c *Config) {
		c.CoalesceWindow = 300 * time.Millisecond
	})

	// Drain the slow tenant's burst so its next submit 429s.
	first := tinySpec(1)
	first.ID = "mix-slow-1"
	first.Tenant = "slow"
	resp := postSpec(t, front.URL, first, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst drain: HTTP %d", resp.StatusCode)
	}

	// One throttled tenant and one unlimited submit racing through the
	// same window.
	var wg sync.WaitGroup
	var slowResp, fastResp *http.Response
	var slowBody, fastBody []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		sp := tinySpec(2)
		sp.ID = "mix-slow-2"
		sp.Tenant = "slow"
		slowResp = postSpec(t, front.URL, sp, nil)
		slowBody, _ = io.ReadAll(slowResp.Body)
		slowResp.Body.Close()
	}()
	go func() {
		defer wg.Done()
		sp := tinySpec(3)
		sp.ID = "mix-fast-1"
		fastResp = postSpec(t, front.URL, sp, nil)
		fastBody, _ = io.ReadAll(fastResp.Body)
		fastResp.Body.Close()
	}()
	wg.Wait()

	if g.metrics.coalescedSubmits.Load() < 2 {
		t.Fatal("the mixed pair never coalesced; the regression under test did not execute")
	}
	if fastResp.StatusCode != http.StatusAccepted {
		t.Errorf("accepted item: HTTP %d: %s", fastResp.StatusCode, fastBody)
	}
	if ra := fastResp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("accepted item carries Retry-After %q from its batch neighbor", ra)
	}
	if slowResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled item: HTTP %d: %s", slowResp.StatusCode, slowBody)
	}
	// Rate 1/s, bucket just emptied: the item's own derived guidance is
	// a 1-second refill, exactly what a direct single submit answers.
	if ra := slowResp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("throttled item Retry-After = %q, want \"1\" (the ITEM's refill time)", ra)
	}
	if price := slowResp.Header.Get(tenant.HeaderAdmissionPrice); price == "" {
		t.Error("throttled item missing X-Admission-Price")
	}
	var apiErr apiError
	if err := json.Unmarshal(slowBody, &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("throttled item body %q; want the apiError a single submit renders", slowBody)
	}
	// The refusal never created a job record (429 contract).
	if _, ok := rep.srv.Get("mix-slow-2"); ok {
		t.Error("429'd job has a record; per-tenant refusals must not create one")
	}
}

// TestWireNegotiationAgainstRealReplica: a submit reaches dmwd as a
// frame and the capability header on its answer is counted once per
// backend; nothing about the client-facing answer changes.
func TestWireNegotiationAgainstRealReplica(t *testing.T) {
	rep := startReplica(t)
	g, front := startGateway(t, []*replica{rep}, nil)
	for i := 0; i < 2; i++ {
		sp := tinySpec(51)
		sp.ID = fmt.Sprintf("wire-probe-%d", i)
		resp := postSpec(t, front.URL, sp, nil)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	if g.metrics.wireNegotiated.Load() != 1 {
		t.Errorf("wireNegotiated = %d, want 1 (one backend, counted once)", g.metrics.wireNegotiated.Load())
	}
}

// TestUnframeableSpecIs400: a spec the frame encoder refuses (a field
// over 65,535 entries) is the client's error — a 400 naming the field on
// both submit endpoints — and no second encoding is ever sent: the
// backend sees nothing.
func TestUnframeableSpecIs400(t *testing.T) {
	var posts atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer backend.Close()
	g, err := New(Config{
		Backends:       []Backend{{Name: "b", URL: backend.URL}},
		HealthInterval: time.Hour,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	wide := tinySpec(70)
	wide.W = make([]int, 1<<16) // one past the frame's 16-bit count
	for i := range wide.W {
		wide.W[i] = 1 + i%3
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/jobs", wide},
		{"/v1/jobs/batch", []server.JobSpec{tinySpec(71), wide}},
	} {
		status, body := postJSON(t, front.URL+tc.path, tc.body)
		var apiErr apiError
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("%s: body %q is not an error envelope: %v", tc.path, body, err)
		}
		if status != http.StatusBadRequest || !strings.Contains(apiErr.Error, "w of 65536 entries") {
			t.Errorf("%s: HTTP %d %q, want 400 naming the oversized field", tc.path, status, apiErr.Error)
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("backend received %d POSTs; an unframeable spec must never be sent in another encoding", n)
	}
}
