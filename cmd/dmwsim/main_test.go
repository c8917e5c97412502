package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmw/internal/audit"
)

// TestSimulateWritesVerifiableTranscript runs a small simulation with
// -transcript and checks the outcome matches MinWork and the file passes
// the offline audit.
func TestSimulateWritesVerifiableTranscript(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-preset", "Test64", "-n", "4", "-m", "2", "-w", "3", "-c", "0", "-transcript", path}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"matches centralized MinWork outcome: true", "transcript written to " + path} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	env, err := audit.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Verify(env.Params, env.Transcript)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.AuctionsChecked != 2 {
		t.Errorf("audit: ok=%v, %d auctions checked, findings %v", rep.OK(), rep.AuctionsChecked, rep.Findings)
	}
}

func TestSimulateRejectsNegativeParallel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-preset", "Test64", "-n", "4", "-m", "1", "-w", "3", "-c", "0", "-parallel", "-1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("err = %v, want the -parallel error", err)
	}
}
