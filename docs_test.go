package dmw

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// TestDocsNameOnlyExistingSymbols: every code span in README.md,
// DESIGN.md, EXPERIMENTS.md or docs/*.md that reads pkg.Ident or
// pkg.Ident.Ident (a call's parentheses or a leading * allowed) must name
// a declaration, where pkg is a package under internal/ or cmd/ (by its
// directory name) or dmw, the root and internal/dmw alike. Ident.Ident is
// a method, a struct field or an interface method of the type Ident; a
// lone Ident may also be a member of one of pkg's types, as in the docs'
// shorthand field.MulInto for (*Field).MulInto. Spans whose names hold an
// underscore are metric names, not Go, and are skipped. So the docs
// cannot name a function, type or method that is gone.
func TestDocsNameOnlyExistingSymbols(t *testing.T) {
	// decls[pkg][name] lists the members of name (nil for a non-type).
	decls := map[string]map[string]map[string]bool{}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range append(append(dirs, cmds...), ".") {
		pkg := filepath.Base(dir)
		if dir == "." {
			pkg = "dmw"
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]map[string]bool{}
		}
		collectDecls(t, dir, decls[pkg])
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	symbol := regexp.MustCompile(`^\*?(\w+)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?(?:\(.*\))?$`)
	codeSpan := regexp.MustCompile("`([^`]+)`")
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				m := symbol.FindStringSubmatch(span[1])
				if m == nil || decls[m[1]] == nil || strings.Contains(m[0], "_") {
					continue
				}
				members, ok := decls[m[1]][m[2]]
				if !ok && m[3] == "" { // the shorthand field.MulInto for (*Field).MulInto
					for _, members := range decls[m[1]] {
						ok = ok || members[m[2]]
					}
				}
				if !ok || m[3] != "" && !members[m[3]] {
					t.Errorf("%s:%d: `%s` names no declaration in package %s", doc, i+1, span[1], m[1])
				}
			}
		}
	}
}

// collectDecls adds the top-level declarations of the non-test Go files in
// dir to decls, each type with its methods, fields and interface methods.
func collectDecls(t *testing.T, dir string, decls map[string]map[string]bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	member := func(typ, name string) {
		if decls[typ] == nil {
			decls[typ] = map[string]bool{}
		}
		decls[typ][name] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls[d.Name.Name] = decls[d.Name.Name]
						continue
					}
					typ := d.Recv.List[0].Type
					if st, ok := typ.(*ast.StarExpr); ok {
						typ = st.X
					}
					if ix, ok := typ.(*ast.IndexExpr); ok { // a generic receiver
						typ = ix.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						member(id.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								decls[id.Name] = decls[id.Name]
							}
						case *ast.TypeSpec:
							decls[sp.Name.Name] = decls[sp.Name.Name]
							var fields *ast.FieldList
							switch x := sp.Type.(type) {
							case *ast.StructType:
								fields = x.Fields
							case *ast.InterfaceType:
								fields = x.Methods
							}
							if fields == nil {
								continue
							}
							for _, fl := range fields.List {
								for _, id := range fl.Names {
									member(sp.Name.Name, id.Name)
								}
								if len(fl.Names) == 0 { // embedded
									typ := fl.Type
									if st, ok := typ.(*ast.StarExpr); ok {
										typ = st.X
									}
									switch x := typ.(type) {
									case *ast.Ident:
										member(sp.Name.Name, x.Name)
									case *ast.SelectorExpr:
										member(sp.Name.Name, x.Sel.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
