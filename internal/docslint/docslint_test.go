// Package docslint is the repository's documentation lint, enforced as
// an ordinary test so CI needs no external linter binary: every package
// must carry a package doc comment; the foundational API surfaces —
// internal/core, internal/wire, and the public churnreg package — must
// document every exported symbol; and a Go comment or a document that
// sends the reader to a Markdown file, a package directory or a root JSON
// file must name one that exists. It uses only go/parser, so the rules it
// enforces and the code enforcing them version together.
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
