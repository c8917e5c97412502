package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmw/internal/membership"
	"dmw/internal/tenant"
)

// acquireLease POSTs one lease heartbeat and returns the grant.
func acquireLease(t *testing.T, frontURL, name, memberURL string, weight int) membership.LeaseGrant {
	t.Helper()
	status, body := postJSON(t, frontURL+membership.LeasePath, membership.LeaseRequest{
		Name: name, URL: memberURL, Weight: weight,
	})
	if status != http.StatusOK {
		t.Fatalf("lease acquire %s: HTTP %d: %s", name, status, body)
	}
	var gr membership.LeaseGrant
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatalf("decoding grant: %v", err)
	}
	return gr
}

// ownedID finds a job ID whose ring owner is the given member, so a
// test can prove traffic actually reaches a freshly joined replica.
func ownedID(t *testing.T, g *Gateway, member, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if owner, ok := g.ring.Owner(id); ok && owner == member {
			return id
		}
	}
	t.Fatalf("no ID of %d tried is owned by %s", 10000, member)
	return ""
}

// TestLeaseJoinRoutesAndRelease: a replica that leases membership is
// placed on the ring with no gateway config change, serves jobs routed
// to its keyspace, and leaves the instant it releases — each transition
// bumping the ring epoch.
func TestLeaseJoinRoutesAndRelease(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, nil)
	epoch0 := g.RingEpoch()

	joiner := startReplica(t)
	gr := acquireLease(t, front.URL, "els-1", joiner.url(), 1)
	if gr.Epoch != epoch0+1 {
		t.Errorf("grant epoch = %d, want %d (join bumps)", gr.Epoch, epoch0+1)
	}
	if gr.TTLMillis <= 0 {
		t.Errorf("grant TTL = %dms, want positive", gr.TTLMillis)
	}
	if len(gr.Peers) != 2 {
		t.Errorf("grant peers = %d, want 2 (static + joiner)", len(gr.Peers))
	}
	if g.ring.Len() != 2 {
		t.Fatalf("ring has %d members after join, want 2", g.ring.Len())
	}

	// A job whose keyspace belongs to the joiner must run on it.
	spec := tinySpec(7)
	spec.ID = ownedID(t, g, "els-1", "lease-own")
	if status, body := postJSON(t, front.URL+"/v1/jobs", spec); status != http.StatusAccepted {
		t.Fatalf("submit to leased member: HTTP %d: %s", status, body)
	}
	if status, body := getJSON(t, front.URL+"/v1/jobs/"+spec.ID+"?wait=10s"); status != http.StatusOK {
		t.Fatalf("read from leased member: HTTP %d: %s", status, body)
	}
	if j, _ := joiner.srv.Get(spec.ID); j == nil {
		t.Error("job owned by the leased member did not land on it")
	}

	// A renewal is not a membership change: same epoch, no ring rebuild.
	if gr2 := acquireLease(t, front.URL, "els-1", joiner.url(), 1); gr2.Epoch != gr.Epoch {
		t.Errorf("renewal moved epoch %d -> %d, want unchanged", gr.Epoch, gr2.Epoch)
	}

	// Graceful release removes the member immediately.
	req, _ := http.NewRequest(http.MethodDelete, front.URL+membership.LeasePath+"/els-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release: HTTP %d, want 204", resp.StatusCode)
	}
	if g.ring.Len() != 1 {
		t.Errorf("ring has %d members after release, want 1", g.ring.Len())
	}
	if got := g.RingEpoch(); got != gr.Epoch+1 {
		t.Errorf("epoch after release = %d, want %d", got, gr.Epoch+1)
	}

	// Releasing a lease that is gone is a 404, not a crash.
	req2, _ := http.NewRequest(http.MethodDelete, front.URL+membership.LeasePath+"/els-1", nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("double release: HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestLeaseExpirySweep: a member that stops renewing is swept off the
// ring within LeaseTTL + HealthInterval, with the expiry counted.
func TestLeaseExpirySweep(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, func(c *Config) {
		c.LeaseTTL = 60 * time.Millisecond
	})
	silent := startReplica(t)
	acquireLease(t, front.URL, "els-silent", silent.url(), 1)
	if g.ring.Len() != 2 {
		t.Fatalf("ring has %d members after join, want 2", g.ring.Len())
	}

	deadline := time.Now().Add(5 * time.Second)
	for g.ring.Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never swept off the ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, text := getJSON(t, front.URL+"/metrics")
	if v := metricValue(t, string(text), "dmwgw_lease_expiries_total"); v < 1 {
		t.Errorf("dmwgw_lease_expiries_total = %g, want >= 1", v)
	}
}

// TestLeaseValidation: malformed names/URLs are rejected before touching
// the ring, and renewing a static name with a new URL re-points it while
// it stays a lease that never expires.
func TestLeaseValidation(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, nil)
	epoch0 := g.RingEpoch()

	cases := []struct {
		name string
		req  membership.LeaseRequest
		want int
	}{
		{"bad name", membership.LeaseRequest{Name: "no spaces allowed", URL: "http://x:1"}, http.StatusBadRequest},
		{"empty name", membership.LeaseRequest{Name: "", URL: "http://x:1"}, http.StatusBadRequest},
		{"bad url", membership.LeaseRequest{Name: "ok-name", URL: "not a url"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body := postJSON(t, front.URL+membership.LeasePath, tc.req); status != tc.want {
			t.Errorf("%s: HTTP %d, want %d: %s", tc.name, status, tc.want, body)
		}
	}
	if g.RingEpoch() != epoch0 || g.ring.Len() != 1 {
		t.Errorf("rejected leases changed membership: epoch %d ring %d", g.RingEpoch(), g.ring.Len())
	}

	moved := startReplica(t)
	acquireLease(t, front.URL, "rep0", moved.url(), 1)
	if got := g.backends["rep0"].base.Load().String(); got != moved.url() {
		t.Errorf("renewed static rep0 dials %s, want %s", got, moved.url())
	}
	if g.RingEpoch() != epoch0 || g.ring.Len() != 1 {
		t.Errorf("re-pointing a static name changed membership: epoch %d ring %d", g.RingEpoch(), g.ring.Len())
	}
	if hb := healthzBackends(t, front.URL)["rep0"]; hb.LeaseExpiresSecs != nil {
		t.Errorf("renewed static rep0 carries lease_expires_seconds %g", *hb.LeaseExpiresSecs)
	}
}

// healthzBackend is the part of a /healthz backend entry tests read.
type healthzBackend struct {
	URL              string   `json:"url"`
	LeaseExpiresSecs *float64 `json:"lease_expires_seconds"`
}

// healthzBackends fetches /healthz and indexes its backends by name.
func healthzBackends(t *testing.T, frontURL string) map[string]healthzBackend {
	t.Helper()
	_, body := getJSON(t, frontURL+"/healthz")
	var hv struct {
		Backends []struct {
			Name string `json:"name"`
			healthzBackend
		} `json:"backends"`
	}
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	out := make(map[string]healthzBackend, len(hv.Backends))
	for _, b := range hv.Backends {
		out[b.Name] = b.healthzBackend
	}
	return out
}

// TestEmptyFleetGrowsFromLease: a gateway may boot with zero static
// backends and become serviceable entirely through membership leases —
// the elastic-from-nothing deployment.
func TestEmptyFleetGrowsFromLease(t *testing.T) {
	g, front := startGateway(t, nil, nil)

	// Before any member: health says down, submits are told to retry.
	if st, _ := getJSON(t, front.URL+"/healthz"); st != http.StatusServiceUnavailable {
		t.Errorf("empty fleet /healthz: HTTP %d, want 503", st)
	}
	if st, _ := postJSON(t, front.URL+"/v1/jobs", tinySpec(1)); st != http.StatusServiceUnavailable {
		t.Errorf("submit to a warming empty fleet: HTTP %d, want 503", st)
	}

	rep := startReplica(t)
	acquireLease(t, front.URL, "first", rep.url(), 1)
	if g.ring.Len() != 1 {
		t.Fatalf("ring has %d members, want 1", g.ring.Len())
	}
	spec := tinySpec(2)
	spec.ID = "empty-grow-1"
	if status, body := postJSON(t, front.URL+"/v1/jobs", spec); status != http.StatusAccepted {
		t.Fatalf("submit after first lease: HTTP %d: %s", status, body)
	}
	if status, _ := getJSON(t, front.URL+"/v1/jobs/"+spec.ID+"?wait=10s"); status != http.StatusOK {
		t.Fatalf("read after first lease: HTTP %d", status)
	}
	if st, _ := getJSON(t, front.URL+"/healthz"); st != http.StatusOK {
		t.Errorf("grown fleet /healthz: HTTP %d, want 200", st)
	}
}

// TestHealthzAndMetricsExposeLeaseState: /healthz carries the ring
// epoch and each leased member's remaining lease (absent for a member
// that never expires), and /metrics exposes dmwgw_ring_epoch plus
// dmwgw_backend_lease_seconds for leased members.
func TestHealthzAndMetricsExposeLeaseState(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, nil)
	leased := startReplica(t)
	acquireLease(t, front.URL, "els-obs", leased.url(), 1)

	st, body := getJSON(t, front.URL+"/healthz")
	if st != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", st)
	}
	var hv struct {
		RingEpoch uint64 `json:"ring_epoch"`
	}
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if hv.RingEpoch != g.RingEpoch() {
		t.Errorf("healthz ring_epoch = %d, want %d", hv.RingEpoch, g.RingEpoch())
	}
	bs := healthzBackends(t, front.URL)
	if len(bs) != 2 {
		t.Errorf("/healthz lists %d backends, want 2", len(bs))
	}
	if left := bs["els-obs"].LeaseExpiresSecs; left == nil || *left <= 0 {
		t.Errorf("leased member missing positive lease_expires_seconds: %+v", bs["els-obs"])
	}
	if bs["rep0"].LeaseExpiresSecs != nil {
		t.Error("static member rep0 carries lease_expires_seconds")
	}
	if strings.Contains(string(body), `"source"`) {
		t.Errorf("/healthz still carries a source field:\n%s", body)
	}

	_, mb := getJSON(t, front.URL+"/metrics")
	text := string(mb)
	if v := metricValue(t, text, "dmwgw_ring_epoch"); uint64(v) != g.RingEpoch() {
		t.Errorf("dmwgw_ring_epoch = %g, want %d", v, g.RingEpoch())
	}
	if v := metricValue(t, text, "dmwgw_lease_joins_total"); v != 1 {
		t.Errorf("dmwgw_lease_joins_total = %g, want 1", v)
	}
	if !strings.Contains(text, `dmwgw_backend_lease_seconds{backend="els-obs"}`) {
		t.Errorf("metrics missing dmwgw_backend_lease_seconds for leased member:\n%s", text)
	}
	if strings.Contains(text, `dmwgw_backend_lease_seconds{backend="rep0"}`) {
		t.Error("static member exposes a lease gauge")
	}
}

// TestFirehoseSurvivesEpochChange: an SSE firehose client connected
// before a lease join keeps its stream across the ring-epoch change,
// every frame stays atomic (parses as one JSON event), and events from
// the newly joined member appear on the SAME connection.
func TestFirehoseSurvivesEpochChange(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, nil)

	resp, err := http.Get(front.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose: HTTP %d", resp.StatusCode)
	}

	// Prove the stream is live pre-join.
	preSpec := tinySpec(11)
	preSpec.ID = "fh-epoch-pre"
	if status, body := postJSON(t, front.URL+"/v1/jobs", preSpec); status != http.StatusAccepted {
		t.Fatalf("pre-join submit: HTTP %d: %s", status, body)
	}

	// Join a second member mid-stream: ring epoch bumps, the firehose
	// rescan attaches the newcomer within one health interval.
	joiner := startReplica(t)
	epochBefore := g.RingEpoch()
	acquireLease(t, front.URL, "els-fh", joiner.url(), 1)
	if g.RingEpoch() == epochBefore {
		t.Fatal("lease join did not move the ring epoch")
	}
	time.Sleep(100 * time.Millisecond) // > HealthInterval: rescan attaches the joiner

	// A job owned by the joiner: its lifecycle must flow through the
	// stream opened before the joiner existed.
	postSpec := tinySpec(12)
	postSpec.ID = ownedID(t, g, "els-fh", "fh-epoch-post")
	if status, body := postJSON(t, front.URL+"/v1/jobs", postSpec); status != http.StatusAccepted {
		t.Fatalf("post-join submit: HTTP %d: %s", status, body)
	}

	want := map[string]bool{preSpec.ID: false, postSpec.ID: false}
	timer := time.AfterFunc(30*time.Second, func() { resp.Body.Close() })
	defer timer.Stop()
	sc := bufio.NewScanner(resp.Body)
	done := 0
	for done < len(want) && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		// Frame atomicity: every data line is one complete JSON event
		// even while membership changed under the relay.
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("torn frame across epoch change: %q: %v", line, err)
		}
		if ev.Type == tenant.EventDone {
			if seen, tracked := want[ev.JobID]; tracked && !seen {
				want[ev.JobID] = true
				done++
			}
		}
	}
	if !want[preSpec.ID] {
		t.Error("pre-join job's done event missing from the stream")
	}
	if !want[postSpec.ID] {
		t.Error("post-join job's done event missing: joiner not attached to the live firehose")
	}
	if j, _ := joiner.srv.Get(postSpec.ID); j == nil {
		t.Error("post-join job did not land on the leased member")
	}
}

// TestGatewayRestartWarmsUntilRenewal: a NEW gateway in front of a
// lease-only fleet starts with an empty ring — leases live in gateway
// memory — but it is warming, not broken: for its first LeaseTTL every
// submit, read, batch and job-event request answers 503 with a
// Retry-After of at most TTL/3, never 502, and one renewal per member
// (the agent heartbeats every TTL/3) restores the full ring. Past one
// TTL an empty fleet is a 502 again. Sleep-free up to that last check:
// the renewal is the test's own POST, not a timer.
func TestGatewayRestartWarmsUntilRenewal(t *testing.T) {
	rep := startReplica(t)
	_, front := startGateway(t, nil, nil)
	acquireLease(t, front.URL, "m1", rep.url(), 1)
	spec := tinySpec(3)
	spec.ID = "survives-gateway-restart"
	if status, body := postJSON(t, front.URL+"/v1/jobs", spec); status != http.StatusAccepted {
		t.Fatalf("submit before restart: HTTP %d: %s", status, body)
	}

	// "Restart": a fresh Gateway built from the same config.
	g2, front2 := startGateway(t, nil, nil)
	if n := g2.ring.Len(); n != 0 {
		t.Fatalf("restarted gateway's ring has %d members, want 0 (leases are not persisted)", n)
	}
	ttl := g2.cfg.LeaseTTL
	requests := map[string]func() (*http.Response, error){
		"read": func() (*http.Response, error) { return http.Get(front2.URL + "/v1/jobs/" + spec.ID) },
		"submit": func() (*http.Response, error) {
			return http.Post(front2.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bids":[[1],[3],[2],[3]],"w":[1,2,3]}`))
		},
		"batch": func() (*http.Response, error) {
			return http.Post(front2.URL+"/v1/jobs/batch", "application/json", strings.NewReader(`[{"bids":[[1],[3],[2],[3]],"w":[1,2,3]}]`))
		},
		"events":   func() (*http.Response, error) { return http.Get(front2.URL + "/v1/jobs/" + spec.ID + "/events") },
		"firehose": func() (*http.Response, error) { return http.Get(front2.URL + "/v1/events") },
	}
	for name, do := range requests {
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if resp.StatusCode != http.StatusServiceUnavailable || ra < 1 || time.Duration(ra)*time.Second > ttl/3 {
			t.Errorf("%s through warming gateway: HTTP %d Retry-After %q, want 503 with 1..%s",
				name, resp.StatusCode, resp.Header.Get("Retry-After"), ttl/3)
		}
	}

	// The member's next heartbeat lands on the new gateway and restores
	// the full ring; the job was on the replica all along.
	acquireLease(t, front2.URL, "m1", rep.url(), 1)
	if n := g2.ring.Len(); n != 1 {
		t.Fatalf("ring has %d members after one renewal, want 1", n)
	}
	if status, body := getJSON(t, front2.URL+"/v1/jobs/"+spec.ID+"?wait=10s"); status != http.StatusOK {
		t.Fatalf("read after renewal: HTTP %d: %s", status, body)
	}

	// Past one TTL with still no member, the fleet is broken: 502.
	g3, front3 := startGateway(t, nil, func(c *Config) { c.LeaseTTL = 30 * time.Millisecond })
	time.Sleep(g3.cfg.LeaseTTL - time.Since(g3.start) + 5*time.Millisecond)
	for _, path := range []string{"/v1/jobs/" + spec.ID, "/v1/events"} {
		if status, body := getJSON(t, front3.URL+path); status != http.StatusBadGateway {
			t.Errorf("GET %s through an empty gateway past one TTL: HTTP %d %s, want 502", path, status, body)
		}
	}
}

// memberURL parses a test member address.
func memberURL(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// quietGateway is a gateway whose health tick never fires, so a test
// drives the lease sweep itself at chosen times.
func quietGateway(t *testing.T, ttl time.Duration) *Gateway {
	t.Helper()
	g, _ := startGateway(t, nil, func(c *Config) {
		c.LeaseTTL = ttl
		c.HealthInterval = time.Hour
	})
	return g
}

// checkTable asserts the one-table invariant: the map, the join order
// and the ring hold the same names, so every name with a live lease is
// routable. It reads all three under bmu, the lock every membership
// change holds.
func checkTable(t *testing.T, g *Gateway) {
	t.Helper()
	g.bmu.RLock()
	defer g.bmu.RUnlock()
	if len(g.order) != len(g.backends) || g.ring.Len() != len(g.backends) {
		t.Errorf("table drift: %d backends, %d in join order, %d on the ring", len(g.backends), len(g.order), g.ring.Len())
	}
	for _, name := range g.order {
		if _, ok := g.backends[name]; !ok {
			t.Errorf("%s is in the join order but not the table", name)
		}
		if _, on := g.ring.Weight(name); !on {
			t.Errorf("%s holds a live lease but is off the ring", name)
		}
	}
}

// checkGrant asserts that the grant's peer list is exactly names.
func checkGrant(t *testing.T, g *Gateway, names ...string) {
	t.Helper()
	var peers []string
	for _, p := range g.grant().Peers {
		peers = append(peers, p.Name)
	}
	if !slices.Equal(peers, names) {
		t.Errorf("grant peers = %v, want %v", peers, names)
	}
}

// TestLeaseAcquireRenewRelease: the first acquire of a name is a join
// with a deadline exactly one TTL out; a renewal is not a join and
// moves the deadline; a renewal with a new URL re-points the member and
// one with a new weight (clamped to >= 1) re-keys the ring; a release
// drops the name and a second release finds nothing.
func TestLeaseAcquireRenewRelease(t *testing.T) {
	g := quietGateway(t, time.Second)
	now := time.Now()
	if !g.acquire("a", memberURL(t, "http://x:1"), 1, now) {
		t.Fatal("first acquire is not a join")
	}
	if left, ok := g.leaseLeft(g.backends["a"], now); !ok || left != time.Second {
		t.Fatalf("lease left %s (leased %v), want 1s", left, ok)
	}
	epoch := g.RingEpoch()

	if g.acquire("a", memberURL(t, "http://x:1"), 1, now.Add(500*time.Millisecond)) {
		t.Fatal("renewal counted as a join")
	}
	if left, _ := g.leaseLeft(g.backends["a"], now); left != 1500*time.Millisecond {
		t.Fatalf("renewal left the lease at %s from the first acquire, want 1.5s", left)
	}
	if g.RingEpoch() != epoch {
		t.Errorf("plain renewal moved the epoch %d -> %d", epoch, g.RingEpoch())
	}

	g.acquire("a", memberURL(t, "http://x:2"), 1, now)
	if got := g.backends["a"].base.Load().String(); got != "http://x:2" {
		t.Errorf("re-pointed member dials %s, want http://x:2", got)
	}
	g.acquire("a", memberURL(t, "http://x:2"), 3, now)
	if w, _ := g.ring.Weight("a"); w != 3 || g.RingEpoch() != epoch+1 {
		t.Errorf("re-weight: ring weight %d epoch %d, want 3 and %d", w, g.RingEpoch(), epoch+1)
	}
	g.acquire("a", memberURL(t, "http://x:2"), 0, now)
	if w, _ := g.ring.Weight("a"); w != 1 {
		t.Errorf("weight 0 kept ring weight %d, want clamped to 1", w)
	}
	checkTable(t, g)
	checkGrant(t, g, "a")

	for i, want := range []int{http.StatusNoContent, http.StatusNotFound} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodDelete, membership.LeasePath+"/a", nil)
		req.SetPathValue("name", "a")
		g.handleLeaseRelease(rec, req)
		if rec.Code != want {
			t.Errorf("release %d: HTTP %d, want %d", i+1, rec.Code, want)
		}
	}
	checkTable(t, g)
	checkGrant(t, g)
}

// TestLeaseExpiryRemovesOnlyPastDeadline: the sweep removes nothing
// before a deadline, then exactly the members past theirs, and an
// expired member is gone from the table, the ring and the grant.
func TestLeaseExpiryRemovesOnlyPastDeadline(t *testing.T) {
	g := quietGateway(t, time.Second)
	now := time.Now()
	g.acquire("b", memberURL(t, "http://x:2"), 1, now)
	g.acquire("a", memberURL(t, "http://x:1"), 1, now)
	g.acquire("c", memberURL(t, "http://x:3"), 1, now.Add(5*time.Second))

	g.sweepLeases(now.Add(500 * time.Millisecond))
	if n := g.metrics.leaseExpiries.Load(); n != 0 {
		t.Fatalf("premature sweep expired %d leases", n)
	}
	g.sweepLeases(now.Add(2 * time.Second))
	if n := g.metrics.leaseExpiries.Load(); n != 2 {
		t.Fatalf("sweep expired %d leases, want 2 (a, b)", n)
	}
	checkTable(t, g)
	checkGrant(t, g, "c")
}

// TestLeaseSweepAndRenewalInEitherOrder is the regression test for the
// split-lock gap: an expiry sweep and the expiring member's renewal
// interleave, in both orders, and after every step each name with a
// live lease is on the ring and in the grant. When the lease table sat
// beside the backend map under its own lock, a renewal landing between
// the sweep's two halves left the member renewing successfully forever
// while off the ring.
func TestLeaseSweepAndRenewalInEitherOrder(t *testing.T) {
	g := quietGateway(t, time.Second)
	u := memberURL(t, "http://x:1")
	t0 := time.Now()
	g.acquire("m", u, 1, t0)
	g.acquire("other", memberURL(t, "http://x:2"), 1, t0.Add(time.Hour))

	// Sweep first, past m's deadline, then m's renewal: it rejoins.
	late := t0.Add(2 * time.Second)
	g.sweepLeases(late)
	checkTable(t, g)
	checkGrant(t, g, "other")
	if !g.acquire("m", u, 1, late) {
		t.Error("renewal after the sweep is not a join")
	}
	checkTable(t, g)
	checkGrant(t, g, "other", "m")

	// Renewal first, then a sweep past m's previous deadline: the
	// renewal moved it, so m stays.
	g.acquire("m", u, 1, late.Add(900*time.Millisecond))
	g.sweepLeases(late.Add(1500 * time.Millisecond))
	checkTable(t, g)
	checkGrant(t, g, "other", "m")
	for i := 0; i < 3; i++ {
		g.acquire("m", u, 1, late.Add(time.Second))
		checkTable(t, g)
		checkGrant(t, g, "other", "m")
	}
}

// TestLeaseSweepRacesRenewals: 8 members renew against a tight sweep
// loop with a 1 ms TTL, so expiries and rejoins interleave constantly;
// the table, join order and ring never drift apart, and once the sweep
// stops one renewal each puts all 8 back on the ring. Meaningful under
// -race.
func TestLeaseSweepRacesRenewals(t *testing.T) {
	g := quietGateway(t, time.Millisecond)
	const members = 8
	var names []string
	for i := 0; i < members; i++ {
		names = append(names, fmt.Sprintf("m%d", i))
	}
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.sweepLeases(time.Now())
			checkTable(t, g)
		}
	}()
	u := memberURL(t, "http://x:1")
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 60; j++ {
				g.acquire(name, u, 1+j%2, time.Now())
				time.Sleep(time.Duration(j%3) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swept
	if g.metrics.leaseExpiries.Load() == 0 {
		t.Error("no lease expired: the sweep never raced a renewal")
	}
	for _, name := range names {
		g.acquire(name, u, 1, time.Now())
	}
	checkTable(t, g)
	peers := g.grant().Peers
	if len(peers) != members {
		t.Errorf("grant lists %d peers after the race, want %d", len(peers), members)
	}
}

// TestLeaseReweightRacesHealthz: a renewal that changes a member's
// weight writes the backend's ring share while /healthz (and the grant
// each renewal answers with) reads it. Meaningful under -race only.
func TestLeaseReweightRacesHealthz(t *testing.T) {
	rep := startReplica(t)
	_, front := startGateway(t, nil, nil)
	acquireLease(t, front.URL, "rw", rep.url(), 1)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(front.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz: %v", err)
				return
			}
			resp.Body.Close()
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	var gr membership.LeaseGrant
	for i := 0; i < 50; i++ {
		gr = acquireLease(t, front.URL, "rw", rep.url(), 1+i%3)
	}
	if len(gr.Peers) != 1 || gr.Peers[0].Weight != 1+49%3 {
		t.Errorf("last grant peers = %+v, want the one member at weight %d", gr.Peers, 1+49%3)
	}
}
