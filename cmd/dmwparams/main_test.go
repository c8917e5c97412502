package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmw/internal/group"
)

// runCmd runs the command with args and returns its stdout and error.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestPresetToStdout(t *testing.T) {
	out, err := runCmd(t, "-preset", group.PresetTest64)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := group.LoadParams(strings.NewReader(out))
	if err != nil {
		t.Fatalf("stdout does not decode: %v\n%s", err, out)
	}
	if !pr.Equal(group.MustPreset(group.PresetTest64)) {
		t.Error("stdout parameters differ from the Test64 preset")
	}
}

func TestInToOutReproducesFile(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "f.json"), filepath.Join(dir, "g.json")
	var buf bytes.Buffer
	if err := group.SaveParams(&buf, group.MustPreset(group.PresetDemo128)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCmd(t, "-in", src, "-out", dst); err != nil || out != "" {
		t.Fatalf("run: err=%v stdout=%q", err, out)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("-out differs from -in:\n%s\nwant:\n%s", got, buf.Bytes())
	}
}

func TestGenerateWritesLoadableParams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if _, err := runCmd(t, "-bits", "64", "-out", path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, err := group.LoadParams(f)
	if err != nil {
		t.Fatal(err)
	}
	if pr.P.BitLen() != 64 {
		t.Errorf("generated %d-bit modulus, want 64", pr.P.BitLen())
	}
}

func TestUnknownPresetFails(t *testing.T) {
	if _, err := runCmd(t, "-preset", "NoSuchPreset"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestOutInMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "p.json")
	if _, err := runCmd(t, "-preset", group.PresetTest64, "-out", path); err == nil {
		t.Error("-out into a missing directory succeeded")
	}
}
