package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickRun runs one cheap experiment at the reduced scale and sees
// its verdict line and the closing summary.
func TestQuickRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-run", "truth"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"=== truth [PASS]", "all 1 experiments passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}
