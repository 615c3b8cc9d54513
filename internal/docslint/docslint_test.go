// Package docslint is the repository's documentation lint, enforced as
// an ordinary test so CI needs no external linter binary: every package
// must carry a package doc comment; the foundational API surfaces —
// internal/core, internal/wire, and the public churnreg package — must
// document every exported symbol; a Go comment or a document that sends
// the reader to a Markdown file, a package directory or a root JSON file
// must name one that exists; a package-qualified name a document puts in
// a code span must be one that package declares, and a bare camelCase
// identifier in one must occur in the module's Go source; and the wire
// tables of ARCHITECTURE.md must add up to what internal/wire encodes. It
// uses only go/parser and the codec itself, so the rules it enforces and
// the code enforcing them version together.
package docslint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// moduleRoot walks up from this package's directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above", dir)
		}
		dir = parent
	}
}

// packageDirs returns every directory under root containing non-test Go
// files, skipping vendor-ish and hidden directories.
func packageDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// parseDir parses every non-test Go file in dir.
func parseDir(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", filepath.Join(dir, e.Name()), err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestEveryPackageHasDocComment: each package in the module (main
// commands and examples included) carries a package-level doc comment on
// at least one of its files.
func TestEveryPackageHasDocComment(t *testing.T) {
	root := moduleRoot(t)
	for _, dir := range packageDirs(t, root) {
		_, files := parseDir(t, dir)
		if len(files) == 0 {
			continue
		}
		documented := false
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			rel, _ := filepath.Rel(root, dir)
			t.Errorf("package %s (%s) has no package doc comment", files[0].Name.Name, rel)
		}
	}
}

// TestFoundationalAPIsDocumentExportedSymbols: internal/core and
// internal/wire (the contracts every layer builds on) and the public
// churnreg package document every exported top-level declaration.
func TestFoundationalAPIsDocumentExportedSymbols(t *testing.T) {
	root := moduleRoot(t)
	for _, dir := range []string{root, filepath.Join(root, "internal/core"), filepath.Join(root, "internal/wire")} {
		fset, files := parseDir(t, dir)
		rel, _ := filepath.Rel(root, dir)
		if rel == "." {
			rel = "churnreg"
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
						t.Errorf("%s: exported %s %s lacks a doc comment (%s)",
							rel, declKind(d), d.Name.Name, fset.Position(d.Pos()))
					}
				case *ast.GenDecl:
					checkGenDecl(t, fset, rel, d)
				}
			}
		}
	}
}

// The references a reader can follow, each checked against the tree: a
// Markdown file ("ARCHITECTURE.md", "bench/README.md"), a package directory
// of this module ("internal/wire", "./cmd/regserve", "churnreg/cmd/regsim"),
// and a JSON file at the root ("BENCHMARK.json"). A glob ("BENCH_*.json")
// names no file and is not checked.
var (
	mdRef   = regexp.MustCompile(`[\w./-]*\w\.md\b`)
	pkgRef  = regexp.MustCompile(`(?:^|[^\w./-])(?:\./|churnreg/)?((?:internal|cmd)/\w+)`)
	jsonRef = regexp.MustCompile(`(?:^|[^\w./-])(\w[\w-]*\.json)\b`)
)

// danglingRefs returns every reference in text that is not in the tree: a
// Markdown file is looked for at the module root and in dir, a package or a
// JSON file at the root only.
func danglingRefs(root, dir, text string) []string {
	var out []string
	for _, ref := range mdRef.FindAllString(text, -1) {
		if !exists(filepath.Join(root, ref)) && !exists(filepath.Join(dir, ref)) {
			out = append(out, ref)
		}
	}
	for _, re := range []*regexp.Regexp{pkgRef, jsonRef} {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !exists(filepath.Join(root, m[1])) {
				out = append(out, m[1])
			}
		}
	}
	return out
}

// TestSourceCommentsReferToFilesInTheTree: every Markdown file, package
// directory and root JSON file a Go comment (test files included) names
// exists — a reader sent somewhere finds it.
func TestSourceCommentsReferToFilesInTheTree(t *testing.T) {
	root := moduleRoot(t)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range danglingRefs(root, filepath.Dir(path), cg.Text()) {
				t.Errorf("%s: comment refers to %s, which is not in the tree", fset.Position(cg.Pos()), ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsReferToFilesInTheTree applies the same check to the documents
// that describe the tree as it is, the CI workflow's comments among them.
// CHANGES.md and ROADMAP.md record its history, so they may name what is
// gone; bench/README.md belongs to the benchmark and changes with it.
func TestDocsReferToFilesInTheTree(t *testing.T) {
	root := moduleRoot(t)
	for _, doc := range []string{"README.md", "TESTING.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		path := filepath.Join(root, doc)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, ref := range danglingRefs(root, filepath.Dir(path), line) {
				t.Errorf("%s:%d: refers to %s, which is not in the tree", doc, i+1, ref)
			}
		}
	}
}

// seriesRef is a /metrics series name as the documents write it.
var seriesRef = regexp.MustCompile(`regserve_[a-z_]+`)

// TestDocsNameExportedSeries: every regserve_* series the documents name
// is one regserve exports, as pinned by its /metrics golden files, or the
// prefix of one (a reader may grep for regserve_shards). A series renamed
// or removed takes its mentions with it.
func TestDocsNameExportedSeries(t *testing.T) {
	root := moduleRoot(t)
	goldens, err := filepath.Glob(filepath.Join(root, "cmd/regserve/testdata/metrics-*.golden"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no /metrics golden files under cmd/regserve/testdata (%v)", err)
	}
	var exported []string
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				exported = append(exported, f[2])
			}
		}
	}
	for _, doc := range []string{"README.md", "TESTING.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, ref := range seriesRef.FindAllString(line, -1) {
				if !slices.ContainsFunc(exported, func(name string) bool { return strings.HasPrefix(name, ref) }) {
					t.Errorf("%s:%d: names %s, which regserve does not export", doc, i+1, ref)
				}
			}
		}
	}
}

// An inline code span of a Markdown line, and a package-qualified name
// inside one: "placement.View.Route" names placement.View. A name preceded
// by a path or another name ("internal/core/core.go", "tr.Placement") is
// not package-qualified, and a snake_case one ("client.rtt_p50_ms") is a
// metric of BENCHMARK.json, not a Go identifier.
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	qualRef  = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Za-z_]\w*)`)
)

// checkedDocs are the documents whose code spans the name checks read.
// bench/README.md belongs to the benchmark and is not checked.
var checkedDocs = []string{"README.md", "ARCHITECTURE.md", "TESTING.md", ".claude/skills/verify/SKILL.md"}

// eachCodeSpan calls fn with every inline code span of checkedDocs that
// sits outside a fenced block, and the document and line it is on.
func eachCodeSpan(t *testing.T, root string, fn func(doc string, line int, span string)) {
	t.Helper()
	for _, doc := range checkedDocs {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				fn(doc, i+1, span)
			}
		}
	}
}

// TestDocsNameDeclaredSymbols: a pkg.Name the documents put in an inline
// code span, where pkg is client or a package directory under internal/,
// names something that package declares — a func, method, type, var or
// const, its test files included. A deleted or renamed identifier takes
// its mentions with it.
func TestDocsNameDeclaredSymbols(t *testing.T) {
	root := moduleRoot(t)
	dirs := map[string]string{"client": filepath.Join(root, "client")}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join(root, "internal", e.Name())
		}
	}
	declared := make(map[string]map[string]bool)
	checked := 0
	eachCodeSpan(t, root, func(doc string, line int, span string) {
		for _, m := range qualRef.FindAllStringSubmatch(span, -1) {
			pkg, name := m[1], m[2]
			dir, ok := dirs[pkg]
			if !ok || strings.Contains(name, "_") {
				continue
			}
			if declared[pkg] == nil {
				declared[pkg] = declaredNames(t, dir)
			}
			checked++
			if !declared[pkg][name] {
				t.Errorf("%s:%d: names %s.%s, which package %s does not declare", doc, line, pkg, name, pkg)
			}
		}
	})
	if checked == 0 {
		t.Fatal("no package-qualified name found in the documents' code spans")
	}
	t.Logf("%d package-qualified names checked", checked)
}

// camelSpan is a code span holding one camelCase identifier — a lower-case
// letter followed by an upper-case one somewhere in it — optionally called:
// `SimCluster`, `writeQ`, `PendingOps()`. One-word spans (`abd`, `Read`)
// are protocol names and plain words as often as identifiers.
var camelSpan = regexp.MustCompile("^`((?:[A-Za-z][A-Za-z0-9]*)?[a-z][A-Z][A-Za-z0-9]*)(?:\\(\\))?`$")

// TestDocsNameKnownIdentifiers: a bare camelCase identifier the documents
// put in a code span occurs somewhere in the module's Go source, tests
// included — as any identifier: a type, func, field, method or local. A
// name whose last use is deleted takes its mentions with it.
func TestDocsNameKnownIdentifiers(t *testing.T) {
	root := moduleRoot(t)
	idents := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	eachCodeSpan(t, root, func(doc string, line int, span string) {
		m := camelSpan.FindStringSubmatch(span)
		if m == nil {
			return
		}
		checked++
		if !idents[m[1]] {
			t.Errorf("%s:%d: names %s, which no Go file in the module uses", doc, line, m[1])
		}
	})
	if checked == 0 {
		t.Fatal("no camelCase identifier found in the documents' code spans")
	}
	t.Logf("%d identifiers checked", checked)
}

// declaredNames returns every top-level func, method, type, var and const
// name the Go files in dir declare, test files included.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}

// checkGenDecl flags undocumented exported types, consts, and vars. A
// doc comment on the grouped declaration covers its members (standard
// godoc practice for const/var blocks).
func checkGenDecl(t *testing.T, fset *token.FileSet, rel string, d *ast.GenDecl) {
	groupDocumented := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDocumented && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") {
				t.Errorf("%s: exported type %s lacks a doc comment (%s)",
					rel, s.Name.Name, fset.Position(s.Pos()))
			}
		case *ast.ValueSpec:
			exported := ""
			for _, name := range s.Names {
				if name.IsExported() {
					exported = name.Name
					break
				}
			}
			if exported == "" {
				continue
			}
			if !groupDocumented && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") &&
				(s.Comment == nil || strings.TrimSpace(s.Comment.Text()) == "") {
				t.Errorf("%s: exported const/var %s lacks a doc comment (%s)",
					rel, exported, fset.Position(s.Pos()))
			}
		}
	}
}
