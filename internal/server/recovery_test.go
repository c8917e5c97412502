package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dmw/internal/group"
)

// journalConfig is testConfig plus a WAL in dir.
func journalConfig(dir string) Config {
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.Fsync = "always" // acknowledged => durable, the contract under test
	return cfg
}

// crashForTest simulates a hard stop (kill -9) of the service core: the
// WAL is sealed abruptly with NO drain, admission stops, and in-flight
// workers are abandoned — anything they complete after this point never
// reaches the journal, exactly like work lost in a real crash.
func (s *Server) crashForTest() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
		select {
		case <-s.stopSweeps:
		default:
			close(s.stopSweeps)
		}
	}
	s.mu.Unlock()
	if s.store.wal != nil {
		_ = s.store.wal.Close() // abrupt: skips the drain
	}
}

// waitTerminal polls until the job with this ID is terminal in s.
func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, ok := s.Get(id)
		if ok && job.State().Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal before deadline", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertMatchesDirectRun checks the job's stored result is identical to
// a fresh dmw.Run of the same spec and seed — the byte-identical
// replayability contract (runs are deterministic in spec+seed).
func assertMatchesDirectRun(t *testing.T, job *Job) {
	t.Helper()
	if st := job.State(); st != StateDone {
		t.Fatalf("job %s: state %s (%s), want done", job.ID, st, job.View().Error)
	}
	res := job.Result()
	spec := job.Spec
	bids := spec.Bids
	if spec.Random != nil {
		bids = randomBids(spec.Random.Agents, spec.Random.Tasks, spec.W, spec.Seed)
	}
	ref := directRun(t, spec, bids)
	if !reflect.DeepEqual(res.Schedule, ref.Outcome.Schedule.Agent) {
		t.Errorf("job %s: schedule %v, direct run %v", job.ID, res.Schedule, ref.Outcome.Schedule.Agent)
	}
	if !reflect.DeepEqual(res.Payments, ref.Outcome.Payments) {
		t.Errorf("job %s: payments %v, direct run %v", job.ID, res.Payments, ref.Outcome.Payments)
	}
}

// TestCrashRecoveryNoJobLost is the crash-recovery integration test:
// submit N jobs against a journal-backed server, hard-stop it mid-
// workload (no drain), restart on the same data
// directory, and require that every accepted job reaches a terminal
// done state with a result identical to a direct dmw.Run of its seed —
// no accepted job lost, no duplicate IDs.
func TestCrashRecoveryNoJobLost(t *testing.T) {
	const jobs = 12
	dir := t.TempDir()

	s1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()

	ids := make([]string, 0, jobs)
	for k := 0; k < jobs; k++ {
		job, err := s1.Submit(JobSpec{
			Random: &RandomSpec{Agents: 5, Tasks: 2},
			W:      []int{1, 2, 3},
			Seed:   int64(7000 + k),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		ids = append(ids, job.ID)
	}
	// Let part of the workload complete so recovery exercises both
	// paths: restored terminal results AND re-enqueued in-flight jobs.
	waitTerminal(t, s1, ids[0], 60*time.Second)
	waitTerminal(t, s1, ids[1], 60*time.Second)
	s1.crashForTest() // hard stop: no drain

	s2 := startServer(t, journalConfig(dir))
	replayed, recoveries := s2.RecoveryStats()
	if recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
	if replayed < jobs {
		t.Fatalf("replayed %d jobs, want >= %d", replayed, jobs)
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s after recovery", id)
		}
		seen[id] = true
		job := waitTerminal(t, s2, id, 120*time.Second)
		assertMatchesDirectRun(t, job)
	}

	// The journal metrics must reflect the recovery.
	var sb strings.Builder
	s2.WriteMetrics(&sb)
	text := sb.String()
	for _, want := range []string{
		"dmwd_journal_enabled 1",
		fmt.Sprintf("dmwd_journal_replayed_jobs %d", replayed),
		"dmwd_journal_recoveries_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCrashRecoveryTornTail appends a half-written frame (a torn write)
// to the WAL tail between crash and restart: recovery must truncate it
// with a warning and still restore every acknowledged job.
func TestCrashRecoveryTornTail(t *testing.T) {
	const jobs = 4
	dir := t.TempDir()

	s1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ids := make([]string, 0, jobs)
	for k := 0; k < jobs; k++ {
		job, err := s1.Submit(JobSpec{
			Bids: [][]int{{1}, {2}, {3}, {3}},
			W:    []int{1, 2, 3},
			Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		waitTerminal(t, s1, id, 60*time.Second)
	}
	s1.crashForTest()

	// Simulate the crash landing mid-append: a frame header promising
	// 100 bytes followed by 3 bytes of body.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs strings.Builder
	cfg := journalConfig(dir)
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	s2 := startServer(t, cfg)
	if !strings.Contains(logs.String(), "torn") {
		t.Errorf("recovery should log a torn-tail warning; got:\n%s", logs.String())
	}
	for _, id := range ids {
		job := waitTerminal(t, s2, id, 60*time.Second)
		assertMatchesDirectRun(t, job)
	}
}

// TestRestartAfterCleanShutdown pins the graceful path: after a
// SIGTERM-style drain the next start serves every terminal result from
// the WAL without re-running anything.
func TestRestartAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	job, err := s1.Submit(JobSpec{Bids: [][]int{{1}, {3}, {2}, {3}}, W: []int{1, 2, 3}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(60 * time.Second) {
		t.Fatal("job did not finish")
	}
	finishedAt := job.View().FinishedAt
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, cfg)
	got, ok := s2.Get(job.ID)
	if !ok {
		t.Fatal("terminal job lost across clean restart")
	}
	v := got.View()
	if v.State != StateDone || v.FinishedAt != finishedAt {
		t.Errorf("restored view (%s, finished %s), want (done, %s) — result must be restored, not re-run",
			v.State, v.FinishedAt, finishedAt)
	}
	assertMatchesDirectRun(t, got)
}

// --- real kill -9, via re-exec of the test binary ---

// crashChildEnv holds the data dir when this process is the sacrificial
// child server (see TestMain in main_test.go).
const crashChildEnv = "DMWD_CRASH_CHILD_DIR"

// runCrashChild is executed inside the re-exec'd test binary: it serves
// a journal-backed dmwd core over HTTP and blocks until killed.
func runCrashChild() {
	dir := os.Getenv(crashChildEnv)
	cfg := Config{
		Preset:     group.PresetTest64,
		QueueDepth: 128,
		Workers:    2,
		ResultTTL:  time.Minute,
		Limits:     Limits{MaxAgents: 16, MaxTasks: 8},
		DataDir:    dir,
		Fsync:      "always",
	}
	s, err := New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	s.Start()
	srv := &http.Server{Handler: s.Handler()}
	ln, err := newLocalListener()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	// Publish the address atomically so the parent can connect.
	addrFile := filepath.Join(dir, "addr")
	if err := os.WriteFile(addrFile+".tmp", []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	_ = srv.Serve(ln) // blocks until SIGKILL
}

// TestKillNineRecovery is the acceptance-criterion scenario end to end:
// a REAL child process (this test binary re-exec'd) runs a journal-
// backed server, the parent submits a batch over HTTP, kills the child
// with SIGKILL mid-workload, restarts on the same data dir, and proves
// zero accepted jobs lost with results identical to direct runs.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() }()

	// Wait for the child to publish its address.
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "addr"))
		if err == nil {
			base = string(raw)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child server never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Submit a batch (also exercises POST /v1/jobs/batch over the wire).
	const jobs = 10
	specs := make([]JobSpec, jobs)
	for k := range specs {
		specs[k] = JobSpec{Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, Seed: int64(9000 + k)}
	}
	body, _ := json.Marshal(specs)
	resp, err := http.Post(base+"/v1/jobs/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(items) != jobs {
		t.Fatalf("batch returned %d items, want %d", len(items), jobs)
	}
	ids := make([]string, jobs)
	for i, it := range items {
		if !it.Accepted || it.Job == nil {
			t.Fatalf("batch item %d rejected: %s", i, it.Error)
		}
		ids[i] = it.Job.ID
	}

	// Wait for the first job to complete (so the workload is genuinely
	// mid-flight), then kill -9.
	for {
		var view JobView
		r, err := http.Get(base + "/v1/jobs/" + ids[0] + "?wait=1s")
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(r.Body).Decode(&view)
		r.Body.Close()
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job completed before deadline")
		}
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, no drain
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	// Restart on the same data dir: every accepted job must reach done
	// with a result identical to a fresh direct run; IDs stay unique.
	s2 := startServer(t, journalConfig(dir))
	if _, recoveries := s2.RecoveryStats(); recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s after kill -9 recovery", id)
		}
		seen[id] = true
		job := waitTerminal(t, s2, id, 120*time.Second)
		assertMatchesDirectRun(t, job)
	}
}
