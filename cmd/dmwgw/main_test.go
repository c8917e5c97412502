package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// smokeArgsEnv re-execs this test binary as a REAL dmwgw process whose
// command line is the variable's value, one argument per line.
const smokeArgsEnv = "DMWGW_SMOKE_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(smokeArgsEnv); ok {
		os.Args = append([]string{"dmwgw"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startGateway starts a dmwgw child with args.
func startGateway(t *testing.T, stderr *bytes.Buffer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), smokeArgsEnv+"="+strings.Join(args, "\n"))
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })
	return cmd
}

// TestGatewaySmoke boots a real dmwgw with one static backend (a fake
// dmwd answering /healthz), checks /healthz lists it as a member that
// never expires, and requires a clean exit on SIGTERM.
func TestGatewaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real gateway process")
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","replica_id":"fake"}`))
	}))
	defer fake.Close()
	addrFile := filepath.Join(t.TempDir(), "addr")
	var stderr bytes.Buffer
	cmd := startGateway(t, &stderr, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-backend", "a,"+fake.URL, "-lease-ttl", "300ms", "-q")

	var base string
	for deadline := time.Now().Add(20 * time.Second); ; {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never published its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hv struct {
		Backends []map[string]any `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(hv.Backends) != 1 || hv.Backends[0]["name"] != "a" {
		t.Fatalf("/healthz: HTTP %d backends %v, want 200 listing a", resp.StatusCode, hv.Backends)
	}
	if _, leased := hv.Backends[0]["lease_expires_seconds"]; leased {
		t.Errorf("static backend a carries lease_expires_seconds: %v", hv.Backends[0])
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("gateway exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gateway did not exit on SIGTERM; stderr:\n%s", stderr.String())
	}
}

// TestGatewayRejectsBadBackend: a malformed -backend stops the gateway
// before it listens, non-zero, naming what parseBackend wants.
func TestGatewayRejectsBadBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real gateway process")
	}
	for spec, want := range map[string]string{
		"x":     "want name,url[,weight]",
		"a,u,0": "weight must be a positive integer",
	} {
		var stderr bytes.Buffer
		cmd := startGateway(t, &stderr, "-addr", "127.0.0.1:0", "-backend", spec)
		err := cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("-backend %s: exit %v, want non-zero", spec, err)
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-backend %s: stderr %q does not say %q", spec, stderr.String(), want)
		}
	}
}
