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

// TestDocsNameOnlyExistingCommands: every ./cmd/, ./examples/ or
// ./internal/ path in a go run, go test or go build command in
// README.md or docs/*.md must name an existing directory, and every
// `make <target>` in a code span or fenced block must name a Makefile
// target, so the docs cannot tell a reader to run what is gone.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	goCmd := regexp.MustCompile(`\bgo (?:run|test|build)\b.*`)
	pkgPath := regexp.MustCompile(`\./((?:cmd|examples|internal)/[\w-]+)`)
	codeSpan := regexp.MustCompile("`[^`]+`")
	makeCmd := regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	for _, doc := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			for _, cmd := range goCmd.FindAllString(line, -1) {
				for _, m := range pkgPath.FindAllStringSubmatch(cmd, -1) {
					if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
						t.Errorf("%s:%d: %q names ./%s, which is not a directory", doc, i+1, strings.TrimSpace(cmd), m[1])
					}
				}
			}
			code := codeSpan.FindAllString(line, -1)
			if fenced {
				code = []string{line}
			}
			for _, c := range code {
				for _, m := range makeCmd.FindAllStringSubmatch(c, -1) {
					if !targets[m[1]] {
						t.Errorf("%s:%d: make %s names no Makefile target", doc, i+1, m[1])
					}
				}
			}
		}
	}
}
