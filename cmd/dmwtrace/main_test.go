package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmw/internal/obs"
)

// traceJSONL records two top-level subtrees, a slow one and a fast one,
// and returns them as the span JSONL GET /v1/jobs/{id}/trace serves.
func traceJSONL(t *testing.T) string {
	t.Helper()
	rec := obs.NewRecorder()
	at := func(ms int) time.Time { return rec.Epoch().Add(time.Duration(ms) * time.Millisecond) }
	slow := rec.Record("slow", 0, at(0), at(9))
	rec.Record("slow.child", slow, at(1), at(8))
	fast := rec.Record("fast", 0, at(9), at(10))
	rec.Record("fast.child", fast, at(9), at(10))
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWaterfall renders the stream from stdin and from a file, in full
// and cut to the slowest subtree.
func TestWaterfall(t *testing.T) {
	trace := traceJSONL(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		args         []string
		want, absent []string
	}{
		{"stdin", nil, []string{"slow", "slow.child", "fast", "fast.child"}, nil},
		{"file", []string{path}, []string{"slow", "slow.child", "fast", "fast.child"}, nil},
		{"slowest 1", []string{"-slowest", "1"}, []string{"slow", "slow.child"}, []string{"fast"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, strings.NewReader(trace), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, stderr.String())
		}
		out := stdout.String()
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: waterfall lacks %q:\n%s", tc.name, w, out)
			}
		}
		for _, a := range tc.absent {
			if strings.Contains(out, a) {
				t.Errorf("%s: waterfall shows %q:\n%s", tc.name, a, out)
			}
		}
	}
}

func TestRefusesTwoFiles(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"a.jsonl", "b.jsonl"}, strings.NewReader(""), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "at most one trace file") {
		t.Errorf("err = %v, want the one-file error", err)
	}
	if !strings.Contains(stderr.String(), "usage: dmwtrace") {
		t.Errorf("stderr lacks the usage line:\n%s", stderr.String())
	}
}
