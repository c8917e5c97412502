package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dmw/internal/journal"
	"dmw/internal/server"
)

// child is one re-exec'd dmwd replica process.
type child struct {
	dir string
	cmd *exec.Cmd
	url string
}

// spawnChild starts (or restarts) a replica process on dir and waits
// for it to publish its address. extraEnv entries ("KEY=value") reach
// the child verbatim (e.g. a tenants config via replicaTenantsEnv).
func spawnChild(t *testing.T, dir string, extraEnv ...string) *child {
	t.Helper()
	_ = os.Remove(filepath.Join(dir, "addr")) // stale address from a previous life
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(append(os.Environ(), replicaChildEnv+"="+dir), extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{dir: dir, cmd: cmd}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })
	deadline := time.Now().Add(60 * time.Second)
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "addr"))
		if err == nil {
			c.url = string(raw)
			return c
		}
		if time.Now().After(deadline) {
			t.Fatal("replica child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_, _ = c.cmd.Process.Wait()
}

// TestFailoverKillNineZeroLoss is the tentpole acceptance scenario end
// to end with REAL processes: two journal-backed dmwd replicas behind
// an in-process gateway, one replica SIGKILLed mid-load. Submissions
// keep succeeding (per-request failover, then ring ejection), and after
// the dead replica restarts on its WAL, every job the gateway ever
// acknowledged reaches a terminal state — zero accepted jobs lost.
func TestFailoverKillNineZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	childA := spawnChild(t, dirA)
	childB := spawnChild(t, dirB)

	// Satellite check, cross-process: while childA is alive its data
	// dir is flocked, so a second opener (as a second dmwd would) is
	// refused with ErrLocked.
	if _, _, err := journal.Open(journal.Options{Dir: dirA}); !errors.Is(err, journal.ErrLocked) {
		t.Fatalf("journal.Open on a live replica's dir: err = %v, want ErrLocked", err)
	}

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

	submit := func(i int) (string, bool) {
		sp := tinySpec(int64(i))
		sp.ID = fmt.Sprintf("e2e-%03d", i)
		status, body := postJSON(t, front.URL+"/v1/jobs", sp)
		switch status {
		case http.StatusAccepted:
			return sp.ID, true
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			// Not acknowledged: the client contract says retry. The
			// zero-loss guarantee covers acknowledged jobs only.
			return "", false
		default:
			t.Fatalf("submit %d: HTTP %d: %s", i, status, body)
			return "", false
		}
	}

	var accepted []string
	acceptedAfterKill := 0
	for i := 0; i < 20; i++ {
		if id, ok := submit(i); ok {
			accepted = append(accepted, id)
		}
	}
	preKill := len(accepted)
	if preKill == 0 {
		t.Fatal("no jobs accepted before the kill")
	}

	childA.kill()

	// Mid-outage load: submissions must keep landing via failover (and,
	// once the prober ejects A, via rerouted placement).
	for i := 20; i < 60; i++ {
		if id, ok := submit(i); ok {
			accepted = append(accepted, id)
			acceptedAfterKill++
		}
	}
	if acceptedAfterKill == 0 {
		t.Fatal("no submissions accepted while one replica was dead; failover is not working")
	}

	// Progress continues during the outage: a post-kill job completes.
	lastID := accepted[len(accepted)-1]
	status, body := getJSON(t, front.URL+"/v1/jobs/"+lastID+"?wait=15s")
	if status != http.StatusOK {
		t.Fatalf("post-kill job read: HTTP %d: %s", status, body)
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !view.State.Terminal() {
		t.Fatalf("post-kill job state = %s; fleet made no progress during the outage", view.State)
	}

	// Restart the dead replica on its WAL. SIGKILL released the flock,
	// so the same dir opens cleanly; recovery re-runs whatever the
	// crash interrupted.
	childA2 := spawnChild(t, dirA)
	if childA2.url != childA.url {
		// New ephemeral port: a lease for "A" at the new URL re-points the
		// static backend, the move a restarted dmwd -join makes by itself.
		t.Logf("replica A moved %s -> %s; re-pointing it by lease", childA.url, childA2.url)
		acquireLease(t, front.URL, "A", childA2.url, 1)
	}

	// Zero loss: every acknowledged job reaches a terminal state
	// through the gateway once the fleet is whole again.
	deadline := time.Now().Add(90 * time.Second)
	for _, id := range accepted {
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
			if time.Now().After(deadline) {
				t.Fatalf("accepted job %s lost: last status HTTP %d: %s", id, status, body)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	t.Logf("zero loss: %d accepted jobs (%d during the outage) all terminal; failovers=%d ejections=%d readmissions=%d",
		len(accepted), acceptedAfterKill, g.metrics.failovers.Load(),
		g.metrics.ejected.Load(), g.metrics.readmitted.Load())
}
