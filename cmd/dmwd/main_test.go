package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dmw/internal/obs"
)

// smokeChildEnv re-execs this test binary as a REAL dmwd process for
// the observability smoke test: JSON logs on stderr, -addr :0 with the
// bound address published via -addr-file, SIGTERM shutdown. The value
// is the scratch directory for the addr file.
const smokeChildEnv = "DMWD_SMOKE_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(smokeChildEnv); dir != "" {
		os.Args = []string{"dmwd",
			"-addr", "127.0.0.1:0",
			"-addr-file", filepath.Join(dir, "addr"),
			"-preset", "Test64",
			"-log-format", "json",
			"-log-level", "debug",
			"-drain-timeout", "20s",
			"-pprof-addr", "127.0.0.1:0",
		}
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "dmwd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is the child's stderr: the test reads it while the copier
// goroutine of exec.Cmd still writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var pprofLine = regexp.MustCompile(`pprof listening on (http://[^"]+/debug/pprof/)`)

// TestObsSmoke is the `make obs-smoke` scenario against a real daemon
// process: boot dmwd with JSON logs and -pprof-addr 127.0.0.1:0, get a
// 200 from the profiler at the address its "pprof listening on" line
// names, submit one traced job over HTTP, assert the trace endpoint
// serves at least one span for every DMW phase (I–IV), SIGTERM the
// daemon, verify it exits cleanly, and verify every log line it wrote
// parses as a JSON object.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), smokeChildEnv+"="+dir)
	var stderr syncBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths

	// Wait for the daemon to publish its bound address.
	addrFile := filepath.Join(dir, "addr")
	var base string
	for deadline := time.Now().Add(20 * time.Second); ; {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The profiler serves on the address its log line names.
	var pprofURL string
	for deadline := time.Now().Add(20 * time.Second); pprofURL == ""; time.Sleep(20 * time.Millisecond) {
		if m := pprofLine.FindStringSubmatch(stderr.String()); m != nil {
			pprofURL = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no pprof listening line; stderr:\n%s", stderr.String())
		}
	}
	resp, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d, want 200", pprofURL, resp.StatusCode)
	}

	// Submit one traced job and wait for it.
	spec := `{"bids":[[3],[1],[2],[3]],"w":[1,2,3],"seed":1,"trace":true}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/jobs/" + view.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.State != "done" {
		t.Fatalf("job state %q, want done", view.State)
	}

	// The trace endpoint serves spans covering every DMW phase.
	resp, err = http.Get(base + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, sp := range spans {
		if ph := sp.Attr("phase"); ph != "" {
			phases[ph]++
		}
	}
	for _, ph := range []string{"I", "II", "III", "IV"} {
		if phases[ph] == 0 {
			t.Errorf("trace has no phase %s span (got %v)", ph, phases)
		}
	}

	// Clean SIGTERM shutdown.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit on SIGTERM; stderr:\n%s", stderr.String())
	}

	// Every log line is a JSON object with slog's msg field: the
	// machine-parseability half of -log-format json.
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("daemon wrote no log lines")
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Errorf("log line not JSON: %q (%v)", line, err)
			continue
		}
		if _, ok := obj["msg"]; !ok {
			t.Errorf("log line missing msg: %q", line)
		}
	}
	// The job lifecycle is visible in the structured stream.
	if !strings.Contains(stderr.String(), `"job done"`) {
		t.Errorf("no structured job-done line in logs:\n%s", stderr.String())
	}
}
