package dmw

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// nonTestGo concatenates every non-test Go file under the given roots.
func nonTestGo(t *testing.T, roots ...string) string {
	t.Helper()
	var b strings.Builder
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			data, err := os.ReadFile(path)
			b.Write(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestDocsNameOnlyEmittedSeries: every dmwd_* and dmwgw_* series named
// in README.md or docs/*.md must occur in the non-test Go under
// internal/ or cmd/, so the docs cannot describe a series the code no
// longer emits. Histogram _bucket/_sum/_count suffixes are stripped
// first. A name also counts as emitted when it occurs without its
// dmwd/dmwgw prefix, because obs.WriteRuntimeMetrics and
// slo.Engine.WriteMetrics build their series from a prefix argument.
func TestDocsNameOnlyEmittedSeries(t *testing.T) {
	code := nonTestGo(t, "internal", "cmd")
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	series := regexp.MustCompile(`\bdmw(?:d|gw)_[a-z0-9_]+`)
	for _, doc := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range series.FindAllString(line, -1) {
				base := name
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					base = strings.TrimSuffix(base, suffix)
				}
				bare := base[strings.IndexByte(base, '_'):]
				if !strings.Contains(code, base) && !strings.Contains(code, bare) {
					t.Errorf("%s:%d names %s, which no non-test Go under internal/ or cmd/ emits", doc, i+1, name)
				}
			}
		}
	}
}
