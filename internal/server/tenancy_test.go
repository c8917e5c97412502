package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmw/internal/tenant"
)

// tinyTenantSpec is the smallest runnable job, tagged with a tenant.
func tinyTenantSpec(tenantID string, seed int64) JobSpec {
	return JobSpec{
		Tenant: tenantID,
		Bids:   [][]int{{1}, {2}, {3}, {3}},
		W:      []int{1, 2, 3},
		Seed:   seed,
	}
}

// postRaw POSTs spec as JSON and returns the raw response (caller
// closes the body) so headers can be inspected.
func postRaw(t *testing.T, url string, spec any) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestWDRRDispatchRatioUnderOverload pins the fairness core of
// docs/TENANCY.md: with both tenants backlogged, a weight-3 tenant's
// jobs are dispatched ~3x as often as a weight-1 tenant's. The queue
// is pre-filled before the (single) worker starts, so the dispatch
// order is exactly the WDRR interleave and the observed ratio is
// deterministic.
func TestWDRRDispatchRatioUnderOverload(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{
			"gold":   {Quota: -1, Weight: 3},
			"bronze": {Quota: -1, Weight: 1},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := s.hub.SubscribeTenant("", 4096)
	defer sub.Close()

	const each = 24
	for k := 0; k < each; k++ {
		if _, err := s.Submit(tinyTenantSpec("gold", int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < each; k++ {
		if _, err := s.Submit(tinyTenantSpec("bronze", int64(100+k))); err != nil {
			t.Fatal(err)
		}
	}

	s.Start()
	defer shutdownServer(t, s)

	counts := map[string]int{}
	deadline := time.After(30 * time.Second)
	for counts["gold"]+counts["bronze"] < 16 {
		select {
		case ev := <-sub.Events():
			if ev.Type == tenant.EventRunning {
				counts[ev.Tenant]++
			}
		case <-deadline:
			t.Fatalf("timed out; dispatched so far: %v", counts)
		}
	}
	ratio := float64(counts["gold"]) / float64(counts["bronze"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("dispatch ratio gold:bronze = %d:%d (%.2f), want ~3:1",
			counts["gold"], counts["bronze"], ratio)
	}
}

// TestAdmissionRatioUnderSustainedOverload drives sustained overload
// against a single worker with equal small quotas and 3:1 weights:
// quota slots recycle at the dispatch rate, so ADMITTED jobs also
// converge to ~3:1 — the fleet-observable form of fairness.
//
// The overload is built in, not borrowed from the protocol's speed: each
// job carries a real-time link delay, so it occupies the worker for
// several of the loop's pacing sleeps however fast the auction itself
// runs. (A tiny job is now quicker than the sleep; without the delay the
// worker would idle between submissions and both tenants would be
// admitted 1:1.)
func TestAdmissionRatioUnderSustainedOverload(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 16
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{
			"gold":   {Quota: 3, Weight: 3},
			"bronze": {Quota: 3, Weight: 1},
		},
	}
	s := startServer(t, cfg)

	admitted := map[string]int{}
	seed := int64(0)
	deadline := time.Now().Add(60 * time.Second)
	for admitted["gold"]+admitted["bronze"] < 80 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out; admitted so far: %v", admitted)
		}
		for _, id := range []string{"gold", "bronze"} {
			seed++
			spec := tinyTenantSpec(id, seed)
			spec.LinkDelayMS = 1
			_, err := s.Submit(spec)
			switch {
			case err == nil:
				admitted[id]++
			case errors.Is(err, ErrQuotaExceeded):
				// expected under overload: the tenant's slots are full
			default:
				t.Fatalf("submit %s: %v", id, err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	ratio := float64(admitted["gold"]) / float64(admitted["bronze"])
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("admitted ratio gold:bronze = %d:%d (%.2f), want ~3:1",
			admitted["gold"], admitted["bronze"], ratio)
	}
}

// TestZeroQuotaTenantIsolation: a quota-0 tenant is refused with 429
// (reason quota) while other tenants' submissions proceed — tenant
// overload must never surface as a global 503.
func TestZeroQuotaTenantIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"guest": {Quota: 0, Weight: 1}},
	}
	s, ts := startHTTP(t, cfg)

	for k := 0; k < 5; k++ {
		status, _, apiErr := postJob(t, ts, tinyTenantSpec("guest", int64(k)))
		if status != http.StatusTooManyRequests {
			t.Fatalf("guest submit %d: status %d, want 429", k, status)
		}
		if !strings.Contains(apiErr.Error, "quota") {
			t.Errorf("guest error = %q, want quota mention", apiErr.Error)
		}
		status, view, _ := postJob(t, ts, tinyTenantSpec("acme", int64(100+k)))
		if status != http.StatusAccepted {
			t.Fatalf("acme submit %d: status %d, want 202 (guest overload must not leak)", k, status)
		}
		if view.Tenant != "acme" {
			t.Errorf("view tenant = %q, want acme", view.Tenant)
		}
	}
	// Tenant 429s never touch the queue or quota accounting.
	if got := s.registry.Get("guest").Live(); got != 0 {
		t.Errorf("guest live jobs = %d, want 0", got)
	}
}

// TestTenantHeaderStampsSpec: X-Tenant-Id fills an empty spec tenant
// (the gateway's forwarding path) but never overrides an explicit one.
func TestTenantHeaderStampsSpec(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	post := func(spec JobSpec, headerTenant string) JobView {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tenant.HeaderTenantID, headerTenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202", resp.StatusCode)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view
	}

	if view := post(tinyTenantSpec("", 1), "acme"); view.Tenant != "acme" {
		t.Errorf("tenant %q, want acme from header", view.Tenant)
	}
	if view := post(tinyTenantSpec("explicit", 2), "acme"); view.Tenant != "explicit" {
		t.Errorf("tenant %q, want spec to win over header", view.Tenant)
	}
}

// TestRateLimit429WithExactRetryAfter: the Retry-After on a rate
// refusal is the token-bucket refill time, not a hardcoded constant.
func TestRateLimit429WithExactRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"slow": {Rate: 1, Burst: 1, Quota: -1, Weight: 1}},
	}
	_, ts := startHTTP(t, cfg)

	status, _, apiErr := postJob(t, ts, tinyTenantSpec("slow", 1))
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d (%s), want 202", status, apiErr.Error)
	}
	resp := postRaw(t, ts.URL+"/v1/jobs", tinyTenantSpec("slow", 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	// Bucket refills at 1/s and was just emptied: the wait is ~1s.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (refill time)", ra)
	}
	if price := resp.Header.Get(tenant.HeaderAdmissionPrice); price == "" {
		t.Error("X-Admission-Price header missing on 429")
	} else if _, err := strconv.ParseFloat(price, 64); err != nil {
		t.Errorf("X-Admission-Price = %q not a float: %v", price, err)
	}
}

// TestIdempotentRetryNotCharged: a gateway retry of an ID the server
// already accepted dedupes BEFORE the tenant gates — it must succeed
// even when the tenant's bucket is empty, and must not burn a token.
func TestIdempotentRetryNotCharged(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"slow": {Rate: 1, Burst: 1, Quota: -1, Weight: 1}},
	}
	s := startServer(t, cfg)

	spec := tinyTenantSpec("slow", 1)
	spec.ID = "idem-tenant-1"
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket is now empty; an idempotent retry must still resolve.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("idempotent retry: %v (must dedupe before rate limiting)", err)
	}
	if again != first {
		t.Error("retry returned a different job")
	}
	// A FRESH submission is rate limited, proving the bucket really was
	// empty during the retry above.
	if _, err := s.Submit(tinyTenantSpec("slow", 2)); !errors.Is(err, ErrRateLimited) {
		t.Errorf("fresh submit err = %v, want ErrRateLimited", err)
	}
}

// TestDerivedRetryAfterOn503: the 503 Retry-After is derived from the
// backlog and drain rate (the satellite fix for the hardcoded "1"):
// with 2 jobs queued, 1 worker, and no completions observed yet, the
// fallback estimate is backlog/workers = 2 seconds.
func TestDerivedRetryAfterOn503(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, s) })
	// Deliberately NOT started: the queue fills and stays full.
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for k := 0; k < 2; k++ {
		if status, _, apiErr := postJob(t, ts, tinyTenantSpec("", int64(k))); status != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d (%s), want 202", k, status, apiErr.Error)
		}
	}
	resp := postRaw(t, ts.URL+"/v1/jobs", tinyTenantSpec("", 99))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-full submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (backlog 2 / 1 worker)", ra)
	}
	if price := resp.Header.Get(tenant.HeaderAdmissionPrice); price == "" {
		t.Error("X-Admission-Price header missing on 503")
	}
	// The refusal still creates a job record (historic 503 contract).
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateRejected {
		t.Errorf("503 body state = %q, want rejected job view", view.State)
	}
}

// TestPriceShedding: when the smoothed admission price exceeds a job's
// max_price bid, the job is shed with reason "price" and no record.
func TestPriceShedding(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	cfg.PriceTau = time.Millisecond // reprice almost instantly
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, s) })
	// Not started: backlog persists, pressure stays at 1.0.
	for k := 0; k < 4; k++ {
		if _, err := s.Submit(tinyTenantSpec("", int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the EWMA converge toward 1

	bid := tinyTenantSpec("", 99)
	bid.ID = "priced-out-1"
	bid.MaxPrice = 0.01
	_, err = s.Submit(bid)
	if !errors.Is(err, ErrPriceTooLow) {
		t.Fatalf("low-bid submit err = %v, want ErrPriceTooLow", err)
	}
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != tenant.ReasonPrice {
		t.Fatalf("rejection = %+v, want reason price", err)
	}
	if rej.Price <= 0.01 {
		t.Errorf("rejection price = %g, want > bid", rej.Price)
	}
	if _, ok := s.Get("priced-out-1"); ok {
		t.Error("price-shed submission left a job record; tenant 429s must not")
	}
	// A price-indifferent job (max_price 0) skips the price gate and
	// falls through to backpressure: queue_full, not price.
	_, err = s.Submit(tinyTenantSpec("", 100))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("no-bid submit err = %v, want ErrQueueFull", err)
	}
}

// TestTenantMetricsExposition: per-tenant counters and the price gauge
// appear in /metrics with bounded, CleanID-folded label values.
func TestTenantMetricsExposition(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"guest": {Quota: 0, Weight: 1}},
	}
	s, ts := startHTTP(t, cfg)

	if _, err := s.Submit(tinyTenantSpec("acme", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tinyTenantSpec("guest", 2)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("guest submit err = %v, want ErrQuotaExceeded", err)
	}
	// Garbage identity folds into "default" instead of minting a label.
	if _, err := s.Submit(tinyTenantSpec("bad tenant!", 3)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`dmwd_tenant_admitted_total{tenant="acme"} 1`,
		`dmwd_tenant_admitted_total{tenant="default"} 1`,
		`dmwd_tenant_rejected_total{tenant="guest",reason="quota"} 1`,
		"dmwd_admission_price ",
		"dmwd_event_subscribers 0",
		"dmwd_events_published_total",
		"dmwd_events_dropped_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "bad tenant") {
		t.Error("/metrics leaked an unfolded tenant label")
	}

	var hv healthView
	if status := getJSON(t, ts.URL+"/healthz", &hv); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if hv.Tenants < 3 { // default + guest + acme
		t.Errorf("healthz tenants = %d, want >= 3", hv.Tenants)
	}
	if hv.AdmissionPrice < 0 {
		t.Errorf("healthz admission_price = %g, want >= 0", hv.AdmissionPrice)
	}
}

// TestBatchTenantGates: per-item tenant refusals inside a batch do not
// fail the batch, and carry the quota error text with no job record.
func TestBatchTenantGates(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"guest": {Quota: 0, Weight: 1}},
	}
	s := startServer(t, cfg)

	items := s.SubmitBatch([]JobSpec{
		tinyTenantSpec("acme", 1),
		tinyTenantSpec("guest", 2),
		tinyTenantSpec("acme", 3),
	})
	if !items[0].Accepted || !items[2].Accepted {
		t.Fatalf("acme items not accepted: %+v", items)
	}
	if items[1].Accepted || !strings.Contains(items[1].Error, "quota") {
		t.Errorf("guest item = %+v, want quota refusal", items[1])
	}
	if items[1].Job != nil {
		t.Error("guest refusal has a job record; tenant 429s must not")
	}
}

// TestSingleTenantThroughputUnchanged guards the zero-tenant-config
// fast path: with no tenant limits configured, jobs flow exactly as
// before (default tenant, no rate gate, no quota gate) and complete.
func TestSingleTenantThroughputUnchanged(t *testing.T) {
	s := startServer(t, testConfig())
	jobs := make([]*Job, 32)
	for k := range jobs {
		job, err := s.Submit(tinyTenantSpec("", int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		jobs[k] = job
	}
	for k, job := range jobs {
		if !job.WaitDone(30 * time.Second) {
			t.Fatalf("job %d did not finish", k)
		}
		if job.Spec.Tenant != tenant.DefaultTenant {
			t.Errorf("job %d tenant = %q, want default", k, job.Spec.Tenant)
		}
	}
}
