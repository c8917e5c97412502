package dmw

import (
	"go/version"
	"os"
	"regexp"
	"testing"
)

// goDirective reads the `go` line of a go.mod.
func goDirective(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go\s+(\S+)`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("%s: no go directive", path)
	}
	return "go" + string(m[1])
}

// TestGoDirectiveNotNewerThanHarness: benchmark/ is its own module that
// pulls this one in through `replace dmw => ../`, and the go command
// refuses to build it ("updates to go.mod needed") once this module
// asks for a newer language version than the harness does. Tier-1 never
// compiles benchmark/, so the mismatch is caught here; raising the root
// `go` line takes a [benchmark] PR that raises both.
func TestGoDirectiveNotNewerThanHarness(t *testing.T) {
	root, harness := goDirective(t, "go.mod"), goDirective(t, "benchmark/go.mod")
	if version.Compare(root, harness) > 0 {
		t.Errorf("go.mod says %s but benchmark/go.mod says %s: the benchmark harness will not build", root, harness)
	}
}
