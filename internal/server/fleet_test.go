package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmw/internal/replica"
)

// fleetPair boots two servers behind real listeners and installs a
// symmetric two-member fleet view (R=2) on both, so every terminal
// record on one replicates to the other.
func fleetPair(t *testing.T) (a, b *Server, aURL, bURL string) {
	t.Helper()
	a, tsA := startHTTP(t, testConfig())
	b, tsB := startHTTP(t, testConfig())
	peers := []replica.Peer{
		{Name: "a", URL: tsA.URL, Weight: 1},
		{Name: "b", URL: tsB.URL, Weight: 1},
	}
	a.ApplyFleetView(replica.View{Epoch: 1, Self: "a", Replication: 2, Peers: peers})
	b.ApplyFleetView(replica.View{Epoch: 1, Self: "b", Replication: 2, Peers: peers})
	return a, b, tsA.URL, tsB.URL
}

// TestReplicateTerminalServesPeerReads: a terminal record written on
// its owner is pushed write-through to the ring successor, which then
// serves BOTH the job view and the transcript from its replica store —
// the read-any property that keeps acknowledged reads alive after the
// owner dies.
func TestReplicateTerminalServesPeerReads(t *testing.T) {
	a, _, aURL, bURL := fleetPair(t)

	spec := JobSpec{
		ID:     "fleet-read-1",
		Random: &RandomSpec{Agents: 5, Tasks: 2},
		W:      []int{1, 2, 3},
		Seed:   42,
		Record: true,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(aURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st := getJSON(t, aURL+"/v1/jobs/"+spec.ID+"?wait=10s", nil); st != http.StatusOK {
		t.Fatalf("owner read: HTTP %d", st)
	}
	job, ok := a.Get(spec.ID)
	if !ok || !job.State().Terminal() {
		t.Fatal("job not terminal on owner")
	}

	// The push is asynchronous: poll the peer until the copy lands.
	deadline := time.Now().Add(10 * time.Second)
	var view JobView
	for {
		if st := getJSON(t, bURL+"/v1/jobs/"+spec.ID, &view); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal record never became readable on the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !view.State.Terminal() || !view.HasTranscript {
		t.Fatalf("peer view state=%s has_transcript=%v, want terminal with transcript", view.State, view.HasTranscript)
	}
	if st := getJSON(t, bURL+"/v1/jobs/"+spec.ID+"/transcript", nil); st != http.StatusOK {
		t.Fatalf("peer transcript read: HTTP %d", st)
	}

	// The replica surface is observable: the peer counts the accepted
	// copy and the served read; the owner exposes its fleet view.
	var health struct {
		Fleet *struct {
			Epoch       uint64 `json:"epoch"`
			Peers       int    `json:"peers"`
			Replication int    `json:"replication"`
		} `json:"fleet"`
	}
	if st := getJSON(t, aURL+"/healthz", &health); st != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", st)
	}
	if health.Fleet == nil || health.Fleet.Epoch != 1 || health.Fleet.Peers != 2 || health.Fleet.Replication != 2 {
		t.Errorf("owner /healthz fleet section = %+v, want epoch 1, 2 peers, R=2", health.Fleet)
	}
	mresp, err := http.Get(bURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"dmwd_replica_accepted_total 1", "dmwd_replica_reads_total", "dmwd_fleet_epoch 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("peer /metrics missing %q", want)
		}
	}
}

// TestAcceptReplicaValidation: the replication RPC is best-effort
// redundancy, so malformed, mismatched, non-terminal, expired,
// deadline-less and result-less payloads are skipped without poisoning
// the store.
func TestAcceptReplicaValidation(t *testing.T) {
	s := startServer(t, testConfig())

	mk := func(id string, r jobRecord) replica.Record {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return replica.Record{ID: id, Origin: "peer", Epoch: 1, Payload: payload}
	}
	now := time.Now()
	good := jobRecord{ID: "ok-1", State: StateDone, Result: &JobResult{}, Submitted: now, Finished: now, Expires: now.Add(time.Hour)}

	bad := []replica.Record{
		{ID: "garbage", Origin: "peer", Payload: json.RawMessage(`{"state": 12`)},
		mk("mismatch", good), // payload says ok-1, envelope says mismatch
		mk("running", jobRecord{ID: "running", State: StateRunning}),
		mk("rejected", jobRecord{ID: "rejected", State: StateRejected, Expires: now.Add(time.Hour)}),
		mk("stale", jobRecord{ID: "stale", State: StateDone, Result: &JobResult{}, Expires: now.Add(-time.Hour)}),
		mk("immortal", jobRecord{ID: "immortal", State: StateDone, Result: &JobResult{}}),  // no Expires: never evicted
		mk("empty", jobRecord{ID: "empty", State: StateDone, Expires: now.Add(time.Hour)}), // done with no result
	}
	if n := s.AcceptReplica(bad); n != 0 {
		t.Fatalf("AcceptReplica stored %d invalid records, want 0", n)
	}
	for _, rec := range bad {
		if _, ok := s.lookupJob(rec.ID); ok {
			t.Errorf("invalid record %q is readable", rec.ID)
		}
	}

	if n := s.AcceptReplica([]replica.Record{mk("ok-1", good)}); n != 1 {
		t.Fatalf("AcceptReplica stored %d valid records, want 1", n)
	}
	job, ok := s.lookupJob("ok-1")
	if !ok || job.State() != StateDone {
		t.Fatal("valid replica copy not readable via lookupJob")
	}
}

// TestHandoffOnShutdown: records that never replicated while running
// (no fleet view yet) are pushed to the successors during the drain —
// the graceful-leave half of zero acknowledged loss. The view is
// installed only after the job completes, so the synchronous handoff is
// the only path the record can have taken.
func TestHandoffOnShutdown(t *testing.T) {
	receiver, tsR := startHTTP(t, testConfig())
	leaverCfg := testConfig()
	leaver, err := New(leaverCfg)
	if err != nil {
		t.Fatal(err)
	}
	leaver.Start()
	tsL := httptest.NewServer(leaver.Handler())
	defer tsL.Close()

	spec := JobSpec{
		ID:     "fleet-handoff-1",
		Random: &RandomSpec{Agents: 5, Tasks: 2},
		W:      []int{1, 2, 3},
		Seed:   7,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(tsL.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getJSON(t, tsL.URL+"/v1/jobs/"+spec.ID+"?wait=10s", nil); st != http.StatusOK {
		t.Fatalf("owner read: HTTP %d", st)
	}

	peers := []replica.Peer{
		{Name: "leaver", URL: tsL.URL, Weight: 1},
		{Name: "receiver", URL: tsR.URL, Weight: 1},
	}
	leaver.ApplyFleetView(replica.View{Epoch: 2, Self: "leaver", Replication: 2, Peers: peers})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leaver.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, ok := receiver.lookupJob(spec.ID); !ok {
		t.Fatal("record not handed off to the successor during drain")
	}
	if st := getJSON(t, tsR.URL+"/v1/jobs/"+spec.ID, nil); st != http.StatusOK {
		t.Fatalf("successor read after handoff: HTTP %d", st)
	}
}
