package main

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmw"
	"dmw/internal/audit"
)

// writeTranscript records the run `dmwsim -preset Test64 -n 4 -m 2 -w 3
// -c 0 -transcript path` records, passing the envelope through edit
// before it is saved.
func writeTranscript(t *testing.T, path string, edit func(*audit.Envelope)) {
	t.Helper()
	w := []int{1, 2, 3}
	game, err := dmw.NewGame(dmw.PresetTest64, w, 0, dmw.RandomBids(4, 2, w, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	game.Record = true
	res, err := dmw.Run(game)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := audit.Save(&buf, game.Params, res.Transcript); err != nil {
		t.Fatal(err)
	}
	env, err := audit.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	edit(env)
	buf.Reset()
	if err := audit.Save(&buf, env.Params, env.Transcript); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runCmd(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestAuditVerifiesRecordedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	writeTranscript(t, path, func(*audit.Envelope) {})
	out, err := runCmd(path)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "VERIFIED") || !strings.Contains(out, "2 auctions checked, 0 findings") {
		t.Errorf("stdout:\n%s", out)
	}
}

// TestAuditFailsOnReplacedLambda: one published Lambda replaced by another
// value fails equation (11), and the command reports the failure.
func TestAuditFailsOnReplacedLambda(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	writeTranscript(t, path, func(env *audit.Envelope) {
		lambda := env.Transcript.Auctions[0].Lambda
		lambda[1] = new(big.Int).Mod(new(big.Int).Mul(lambda[1], env.Params.Z1), env.Params.P)
	})
	out, err := runCmd(path)
	if err == nil || err.Error() != "transcript FAILED verification" {
		t.Fatalf("err = %v, want the FAILED verification error\n%s", err, out)
	}
	if !strings.Contains(out, "FINDING: task 0, agent 1: Lambda/Psi fails eq (11)") {
		t.Errorf("stdout does not name the replaced Lambda:\n%s", out)
	}
}

func TestAuditWithoutArgumentIsUsageError(t *testing.T) {
	if _, err := runCmd(); err == nil || !strings.HasPrefix(err.Error(), "usage: dmwaudit") {
		t.Errorf("err = %v, want the usage error", err)
	}
}
