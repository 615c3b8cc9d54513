// Package docslint is the repository's documentation lint, enforced as
// an ordinary test so CI needs no external linter binary: every package
// must carry a package doc comment; the foundational API surfaces —
// internal/core, internal/wire, and the public churnreg package — must
// document every exported symbol; and a comment that sends the reader to
// a Markdown file must name one that exists. It uses only go/parser, so
// the rules it enforces and the code enforcing them version together.
package docslint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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

// mdRef matches a Markdown file named in prose: "ARCHITECTURE.md",
// "bench/README.md".
var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestSourceCommentsReferToFilesInTheTree: every *.md file a Go comment
// (test files included) names exists, relative to the module root or to
// the commenting file's directory — a reader sent to a document finds it.
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
			for _, ref := range mdRef.FindAllString(cg.Text(), -1) {
				if !exists(filepath.Join(root, ref)) && !exists(filepath.Join(filepath.Dir(path), ref)) {
					t.Errorf("%s: comment refers to %s, which is not in the tree", fset.Position(cg.Pos()), ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
