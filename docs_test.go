package femtocr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedTestName matches a test, fuzz target, benchmark or example name as
// the docs cite it; a trailing * makes the name a prefix (BenchmarkSlotStep*).
var citedTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*\*?`)

// TestDocsCiteDeclaredTests fails on every Test, Fuzz, Benchmark or Example
// name that README.md, DESIGN.md or EXPERIMENTS.md cites and no Go file of
// the repository declares (the nested perfbench module included; fixtures
// under testdata are not declarations), so a rename or deletion cannot
// leave the docs pointing at a check that no longer runs.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, name := range citedTestName.FindAllString(string(text), -1) {
			if !citedDeclared(name, declared) {
				missing[name] = true
			}
		}
		names := make([]string, 0, len(missing))
		for name := range missing {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Errorf("%s cites %s, which no Go file declares", doc, name)
		}
	}
}

// citedDeclared reports whether a cited name, or for a prefix citation some
// name it prefixes, is declared.
func citedDeclared(name string, declared map[string]bool) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
