package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dmw/internal/membership"
	replpkg "dmw/internal/replica"
	"dmw/internal/server"
)

// term SIGTERMs the child and waits for its graceful leave: drain,
// record handoff to ring successors, lease release, clean exit.
func (c *child) term(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("child never exited after SIGTERM")
	}
}

// spawnMember spawns a journal-backed child that leases membership from
// the gateway under the given name and waits until it is on the ring.
func spawnMember(t *testing.T, g *Gateway, frontURL, name string) *child {
	t.Helper()
	c := spawnChild(t, t.TempDir(), replicaJoinEnv+"="+frontURL, replicaNameEnv+"="+name)
	waitMember(t, g, name, true)
	return c
}

// waitMember polls until the named member is (or is not) on the ring.
func waitMember(t *testing.T, g *Gateway, name string, present bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, on := g.ring.Weight(name)
		if on == present {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %s: ring presence never became %v", name, present)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// elasticGateway boots an in-process gateway with zero static backends:
// the whole fleet forms from leases. A real listener (httptest) makes
// it reachable by the child processes.
func elasticGateway(t *testing.T) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(Config{
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  time.Second,
		RequestTimeout: 10 * time.Second,
		LeaseTTL:       1500 * time.Millisecond,
		Replication:    2,
	})
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

// TestE2EElasticResizeZeroLoss is the elastic-fleet acceptance scenario
// (make e2e-elastic): a journal-backed fleet grows 2 -> 6 and shrinks
// back to 3 under sustained mixed load, entirely through membership
// leases — no gateway config edit, no gateway restart. Every job the
// gateway acknowledged reaches a terminal state, and reads of
// acknowledged jobs never 502 while the fleet resizes.
func TestE2EElasticResizeZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	g, front := elasticGateway(t)

	members := map[string]*child{}
	for _, name := range []string{"m0", "m1"} {
		members[name] = spawnMember(t, g, front.URL, name)
	}
	if g.ring.Len() != 2 {
		t.Fatalf("ring has %d members, want 2", g.ring.Len())
	}

	// Sustained load: a submitter keeps acknowledged job IDs flowing for
	// the whole resize arc, and a reader continuously re-reads jobs that
	// were already acknowledged AND observed terminal — those must never
	// 502, whatever the membership does underneath.
	var (
		mu       sync.Mutex
		accepted []string
		terminal []string
		stopLoad = make(chan struct{})
		readErr  atomic.Value // first reader failure, checked at the end
		wg       sync.WaitGroup
	)
	submit := func(i int) {
		sp := tinySpec(int64(i))
		sp.ID = fmt.Sprintf("els-%04d", i)
		status, body := postJSON(t, front.URL+"/v1/jobs", sp)
		switch status {
		case http.StatusAccepted:
			mu.Lock()
			accepted = append(accepted, sp.ID)
			mu.Unlock()
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			// Not acknowledged; the zero-loss guarantee does not cover it.
		default:
			readErr.CompareAndSwap(nil, fmt.Errorf("submit %d: HTTP %d: %s", i, status, body))
		}
	}
	wg.Add(2)
	go func() { // submitter
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			submit(i)
			time.Sleep(15 * time.Millisecond)
		}
	}()
	go func() { // reader of acknowledged-terminal jobs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			mu.Lock()
			var id string
			if len(terminal) > 0 {
				id = terminal[i%len(terminal)]
			}
			mu.Unlock()
			if id == "" {
				// Nothing verified terminal yet: promote one.
				mu.Lock()
				var cand string
				if len(accepted) > 0 {
					cand = accepted[0]
				}
				mu.Unlock()
				if cand != "" {
					if st, body := getJSON(t, front.URL+"/v1/jobs/"+cand+"?wait=5s"); st == http.StatusOK {
						var v server.JobView
						if json.Unmarshal(body, &v) == nil && v.State.Terminal() {
							mu.Lock()
							terminal = append(terminal, cand)
							mu.Unlock()
						}
					}
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if st, body := getJSON(t, front.URL+"/v1/jobs/"+id); st != http.StatusOK {
				readErr.CompareAndSwap(nil, fmt.Errorf("read of acknowledged terminal job %s: HTTP %d: %s", id, st, body))
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	settle := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if err, _ := readErr.Load().(error); err != nil {
				t.Fatal(err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	settle(500 * time.Millisecond) // load on the 2-member fleet

	// Grow 2 -> 6 one lease at a time, load never pausing.
	for _, name := range []string{"m2", "m3", "m4", "m5"} {
		members[name] = spawnMember(t, g, front.URL, name)
	}
	if g.ring.Len() != 6 {
		t.Fatalf("ring has %d members after growth, want 6", g.ring.Len())
	}
	settle(700 * time.Millisecond) // load on the 6-member fleet

	// Shrink 6 -> 3 by graceful leave: each member drains, hands its
	// records to successors, releases its lease, exits 0.
	for _, name := range []string{"m5", "m4", "m3"} {
		members[name].term(t)
		waitMember(t, g, name, false)
		settle(300 * time.Millisecond) // load between departures
	}
	if g.ring.Len() != 3 {
		t.Fatalf("ring has %d members after shrink, want 3", g.ring.Len())
	}

	close(stopLoad)
	wg.Wait()
	if err, _ := readErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Zero acknowledged loss: every acknowledged job reaches a terminal,
	// readable state through the gateway on the final 3-member fleet.
	mu.Lock()
	all := append([]string(nil), accepted...)
	mu.Unlock()
	if len(all) < 20 {
		t.Fatalf("only %d jobs acknowledged across the resize; load generator too slow", len(all))
	}
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range all {
		for {
			status, body := getJSON(t, front.URL+"/v1/jobs/"+id+"?wait=5s")
			if status == http.StatusOK {
				var v server.JobView
				if err := json.Unmarshal(body, &v); err != nil {
					t.Fatal(err)
				}
				if v.State.Terminal() {
					break
				}
			}
			if status == http.StatusBadGateway {
				t.Fatalf("acknowledged job %s read returned 502 after resize: %s", id, body)
			}
			if time.Now().After(deadline) {
				t.Fatalf("acknowledged job %s lost in resize: last HTTP %d: %s", id, status, body)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	t.Logf("elastic resize 2->6->3: %d acknowledged jobs all terminal; ring epoch %d, failovers=%d",
		len(all), g.RingEpoch(), g.metrics.failovers.Load())
}

// TestE2EElasticKillNineTranscript pins transcript durability end to
// end: a recorded job's transcript, once acknowledged, survives kill -9
// of its owner — first served from a ring successor's replica copy
// (write-through replication), then from the owner's own WAL recovery
// after restart.
func TestE2EElasticKillNineTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	g, front := elasticGateway(t)
	members := map[string]*child{}
	for _, name := range []string{"t0", "t1", "t2"} {
		members[name] = spawnMember(t, g, front.URL, name)
	}

	// Let one renewal cycle pass so every member's fleet view includes
	// all three peers before the job's terminal record replicates.
	time.Sleep(700 * time.Millisecond)

	owner := "t0"
	sp := tinySpec(99)
	sp.ID = ownedID(t, g, owner, "els-tr")
	sp.Record = true
	if status, body := postJSON(t, front.URL+"/v1/jobs", sp); status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", status, body)
	}
	status, body := getJSON(t, front.URL+"/v1/jobs/"+sp.ID+"?wait=15s")
	if status != http.StatusOK {
		t.Fatalf("read: HTTP %d: %s", status, body)
	}
	var v server.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.State.Terminal() || !v.HasTranscript {
		t.Fatalf("job state=%s has_transcript=%v, want terminal with transcript", v.State, v.HasTranscript)
	}
	st, original := getJSON(t, front.URL+"/v1/jobs/"+sp.ID+"/transcript")
	if st != http.StatusOK {
		t.Fatalf("transcript before kill: HTTP %d: %s", st, original)
	}

	// Wait for the async write-through to land on a non-owner: some
	// other member must serve the job from its replica store.
	deadline := time.Now().Add(15 * time.Second)
	for {
		replicated := false
		for name, c := range members {
			if name == owner {
				continue
			}
			if st, _ := getJSON(t, c.url+"/v1/jobs/"+sp.ID); st == http.StatusOK {
				replicated = true
				break
			}
		}
		if replicated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal record never replicated to a ring successor")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// kill -9 the owner. The acknowledged transcript must still be
	// readable through the gateway — failover walks the ring successors
	// and one of them holds the replicated record.
	members[owner].kill()
	st, fromReplica := getJSON(t, front.URL+"/v1/jobs/"+sp.ID+"/transcript")
	if st != http.StatusOK {
		t.Fatalf("transcript after kill -9 of owner: HTTP %d: %s", st, fromReplica)
	}
	if !bytes.Equal(original, fromReplica) {
		t.Error("replica-served transcript differs from the owner's original")
	}

	// Restart the owner on its WAL under the same member name: the lease
	// re-points routing, and recovery restores the journaled transcript.
	restarted := spawnChild(t, members[owner].dir,
		replicaJoinEnv+"="+front.URL, replicaNameEnv+"="+owner)
	st, direct := getJSON(t, restarted.url+"/v1/jobs/"+sp.ID+"/transcript")
	if st != http.StatusOK {
		t.Fatalf("transcript from recovered owner WAL: HTTP %d: %s", st, direct)
	}
	if !bytes.Equal(original, direct) {
		t.Error("recovered transcript differs from the acknowledged original")
	}
	st, viaGW := getJSON(t, front.URL+"/v1/jobs/"+sp.ID+"/transcript")
	if st != http.StatusOK {
		t.Fatalf("transcript via gateway after recovery: HTTP %d", st)
	}
	if !bytes.Equal(original, viaGW) {
		t.Error("gateway-served transcript changed across the crash/recovery cycle")
	}
}

// TestE2EElasticTwoGateways: two gateways in front of one leased fleet,
// each member's agent renewing with both. Every acknowledged job stays
// readable — zero 502 — through the second gateway after the first one
// dies, and a gateway rebuilt at the first one's address is told the
// full ring by the members' next renewal, answering 503 (never 502)
// until then.
func TestE2EElasticTwoGateways(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two gateways and lease agents on real timers")
	}
	const ttl = 1500 * time.Millisecond
	newGateway := func() *Gateway {
		g, err := New(Config{
			HealthInterval: 25 * time.Millisecond,
			HealthTimeout:  time.Second,
			RequestTimeout: 10 * time.Second,
			LeaseTTL:       ttl,
			Replication:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	g1, g2 := newGateway(), newGateway()
	front1, front2 := httptest.NewServer(g1.Handler()), httptest.NewServer(g2.Handler())
	defer front2.Close()

	for _, name := range []string{"r0", "r1"} {
		rep := startReplica(t)
		agent, err := membership.NewAgent(membership.AgentConfig{
			Gateways: []string{front1.URL, front2.URL},
			Name:     name,
			URL:      rep.url(),
			OnGrant: func(gr membership.LeaseGrant) {
				peers := make([]replpkg.Peer, len(gr.Peers))
				for i, p := range gr.Peers {
					peers[i] = replpkg.Peer{Name: p.Name, URL: p.URL, Weight: p.Weight}
				}
				rep.srv.ApplyFleetView(replpkg.View{Epoch: gr.Epoch, Self: name, Replication: gr.Replication, Peers: peers})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		agent.Start()
		t.Cleanup(agent.Stop)
	}
	for _, g := range []*Gateway{g1, g2} {
		waitMember(t, g, "r0", true)
		waitMember(t, g, "r1", true)
	}

	// Acknowledge jobs through gateway 1 and see each one finish.
	var ids []string
	for i := 0; i < 16; i++ {
		sp := tinySpec(int64(i))
		sp.ID = fmt.Sprintf("two-gw-%02d", i)
		if status, body := postJSON(t, front1.URL+"/v1/jobs", sp); status != http.StatusAccepted {
			t.Fatalf("submit %s via gateway 1: HTTP %d: %s", sp.ID, status, body)
		}
		if status, body := getJSON(t, front1.URL+"/v1/jobs/"+sp.ID+"?wait=10s"); status != http.StatusOK {
			t.Fatalf("read %s via gateway 1: HTTP %d: %s", sp.ID, status, body)
		}
		ids = append(ids, sp.ID)
	}

	// Gateway 1 dies; gateway 2 already holds the full ring.
	addr := front1.Listener.Addr().String()
	front1.Close()
	g1.Close()
	for _, id := range ids {
		if status, body := getJSON(t, front2.URL+"/v1/jobs/"+id); status != http.StatusOK {
			t.Errorf("read %s via gateway 2 after gateway 1 died: HTTP %d: %s", id, status, body)
		}
	}

	// Rebuild gateway 1 at its old address: it warms (503, never 502)
	// until one renewal period has passed, then holds both members.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("old gateway address %s not reusable: %v", addr, err)
	}
	g3 := newGateway()
	front3 := httptest.NewUnstartedServer(g3.Handler())
	front3.Listener.Close()
	front3.Listener = ln
	front3.Start()
	defer front3.Close()
	deadline := time.Now().Add(ttl/3 + 500*time.Millisecond)
	for g3.ring.Len() < 2 {
		if status, body := getJSON(t, front3.URL+"/v1/jobs/"+ids[0]); status == http.StatusBadGateway {
			t.Fatalf("rebuilt gateway answered 502 while warming: %s", body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuilt gateway has %d of 2 members after one renewal period", g3.ring.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		if status, body := getJSON(t, front3.URL+"/v1/jobs/"+id); status != http.StatusOK {
			t.Errorf("read %s via the rebuilt gateway: HTTP %d: %s", id, status, body)
		}
	}
}
