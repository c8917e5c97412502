package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
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

// TestLeaseValidation: a lease may not shadow a static backend's name,
// and malformed names/URLs are rejected before touching the ring.
func TestLeaseValidation(t *testing.T) {
	rep0 := startReplica(t)
	g, front := startGateway(t, []*replica{rep0}, nil)
	epoch0 := g.RingEpoch()

	cases := []struct {
		name string
		req  membership.LeaseRequest
		want int
	}{
		{"static shadow", membership.LeaseRequest{Name: "rep0", URL: "http://10.0.0.9:1"}, http.StatusConflict},
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
}

// TestEmptyFleetGrowsFromLease: a gateway may boot with zero static
// backends and become serviceable entirely through membership leases —
// the elastic-from-nothing deployment.
func TestEmptyFleetGrowsFromLease(t *testing.T) {
	g, front := startGateway(t, nil, nil)

	// Before any member: health says down, submits are unrouted.
	if st, _ := getJSON(t, front.URL+"/healthz"); st != http.StatusServiceUnavailable {
		t.Errorf("empty fleet /healthz: HTTP %d, want 503", st)
	}
	if st, _ := postJSON(t, front.URL+"/v1/jobs", tinySpec(1)); st != http.StatusBadGateway && st != http.StatusServiceUnavailable {
		t.Errorf("submit to empty fleet: HTTP %d, want 502/503", st)
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
// epoch and per-backend source/lease expiry, and /metrics exposes
// dmwgw_ring_epoch plus dmwgw_backend_lease_seconds for leased members.
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
		Backends  []struct {
			Name             string   `json:"name"`
			Source           string   `json:"source"`
			LeaseExpiresSecs *float64 `json:"lease_expires_seconds"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if hv.RingEpoch != g.RingEpoch() {
		t.Errorf("healthz ring_epoch = %d, want %d", hv.RingEpoch, g.RingEpoch())
	}
	sources := map[string]string{}
	for _, b := range hv.Backends {
		sources[b.Name] = b.Source
		if b.Name == "els-obs" {
			if b.LeaseExpiresSecs == nil || *b.LeaseExpiresSecs <= 0 {
				t.Errorf("leased member missing positive lease_expires_seconds: %+v", b)
			}
		} else if b.LeaseExpiresSecs != nil {
			t.Errorf("static member %s carries lease_expires_seconds", b.Name)
		}
	}
	if sources["rep0"] != "static" || sources["els-obs"] != "lease" {
		t.Errorf("backend sources = %v, want rep0:static els-obs:lease", sources)
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

// TestGatewayRestartForgetsLeasesUntilRenewal pins ROADMAP item 6's
// known gap as it behaves today: the lease table lives in one gateway's
// memory, so a NEW gateway on the same config starts with an empty ring.
// Reads of a job the leased member durably holds answer 502 "no backend
// candidates" — not 404, nothing is lost — until that member's next
// renewal (the agent heartbeats every TTL/3) re-admits it. Sleep-free:
// the renewal is the test's own POST, not a timer.
func TestGatewayRestartForgetsLeasesUntilRenewal(t *testing.T) {
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
	status, body := getJSON(t, front2.URL+"/v1/jobs/"+spec.ID)
	if status != http.StatusBadGateway || !strings.Contains(string(body), "no backend candidates") {
		t.Fatalf("read through restarted gateway: HTTP %d %s, want 502 no backend candidates", status, body)
	}
	if status, _ := postJSON(t, front2.URL+"/v1/jobs", tinySpec(4)); status != http.StatusBadGateway {
		t.Errorf("submit through restarted gateway: HTTP %d, want 502", status)
	}

	// The member's next heartbeat lands on the new gateway and re-admits
	// it; the job was on the replica all along.
	acquireLease(t, front2.URL, "m1", rep.url(), 1)
	if status, body := getJSON(t, front2.URL+"/v1/jobs/"+spec.ID+"?wait=10s"); status != http.StatusOK {
		t.Fatalf("read after renewal: HTTP %d: %s", status, body)
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
