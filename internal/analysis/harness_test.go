package analysis

import (
	"go/ast"
	"go/parser"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"femtocr/internal/analysis/flow"
)

// The fixture harness: each testdata file is parsed and type-checked as a
// standalone package (imports resolve through the loaded module, so fixtures
// may import both stdlib and femtocr packages), one analyzer runs over it,
// and its diagnostics are matched line-by-line against `// want "regexp"`
// comments. A fixture with no want comments asserts the analyzer stays
// silent.
//
// An optional first line `// fixturepath: <import path>` sets the package
// path the analyzer sees, which the path-scoped randsource policy keys off.

var (
	moduleOnce sync.Once
	moduleVal  *Module
	moduleErr  error
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		moduleVal, moduleErr = LoadModule(".")
	})
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return moduleVal
}

var (
	wantRx        = regexp.MustCompile(`// want "([^"]*)"`)
	fixturePathRx = regexp.MustCompile(`// fixturepath: (\S+)`)
)

func runFixture(t *testing.T, a *Analyzer, filename string) {
	t.Helper()
	m := loadTestModule(t)

	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("read %s: %v", filename, err)
	}
	src := string(data)
	path := "femtocr/fixture"
	if match := fixturePathRx.FindStringSubmatch(src); match != nil {
		path = match[1]
	}

	file, err := parser.ParseFile(m.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", filename, err)
	}
	pkg, ix := checkIn(t, m, path, []*ast.File{file})
	diags := m.runPass(a, pkg, ix)

	wants := make(map[int]*regexp.Regexp)
	for i, line := range strings.Split(src, "\n") {
		if match := wantRx.FindStringSubmatch(line); match != nil {
			rx, err := regexp.Compile(match[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, match[1], err)
			}
			wants[i+1] = rx
		}
	}

	matched := make(map[int]bool)
	for _, d := range diags {
		rx, ok := wants[d.Pos.Line]
		switch {
		case !ok:
			t.Errorf("%s:%d: unexpected diagnostic: %s", filename, d.Pos.Line, d.Message)
		case !rx.MatchString(d.Message):
			t.Errorf("%s:%d: diagnostic %q does not match want %q", filename, d.Pos.Line, d.Message, rx)
		default:
			matched[d.Pos.Line] = true
		}
	}
	for line, rx := range wants {
		if !matched[line] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filename, line, rx)
		}
	}
}

func TestRandSourceFixtures(t *testing.T) {
	runFixture(t, RandSource, "testdata/randsource_flag.go")
	runFixture(t, RandSource, "testdata/randsource_clean.go")
}

func TestMapIterFixtures(t *testing.T) {
	runFixture(t, MapIter, "testdata/mapiter_flag.go")
	runFixture(t, MapIter, "testdata/mapiter_clean.go")
}

func TestFloatEqFixtures(t *testing.T) {
	runFixture(t, FloatEq, "testdata/floateq_flag.go")
	runFixture(t, FloatEq, "testdata/floateq_clean.go")
}

func TestErrDropFixtures(t *testing.T) {
	runFixture(t, ErrDrop, "testdata/errdrop_flag.go")
	runFixture(t, ErrDrop, "testdata/errdrop_clean.go")
}

func TestAliasCheckFixtures(t *testing.T) {
	runFixture(t, AliasCheck, "testdata/aliascheck_flag.go")
	runFixture(t, AliasCheck, "testdata/aliascheck_clean.go")
}

func TestDirectivesFixtures(t *testing.T) {
	runFixture(t, Directives, "testdata/directives_flag.go")
}

// TestIgnoreDirective: a well-formed femtovet:ignore comment suppresses the
// named analyzer on its line and the next; a reasonless or wrongly named
// one does not.
func TestIgnoreDirective(t *testing.T) {
	runFixture(t, FloatEq, "testdata/ignore_directive.go")
}

// TestReasonlessIgnoreFlagged covers the one directives finding a fixture
// cannot express: `//femtovet:ignore floateq` with no reason at all (a want
// comment on the directive line would become part of the analyzer list).
func TestReasonlessIgnoreFlagged(t *testing.T) {
	m := loadTestModule(t)
	src := "package fixture\n\nfunc eq(a, b float64) bool {\n\treturn a == b //femtovet:ignore floateq\n}\n"
	file, err := parser.ParseFile(m.Fset, "reasonless.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, ix := checkIn(t, m, "femtocr/internal/reasonless", []*ast.File{file})
	diags := m.runPass(Directives, pkg, ix)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "without a reason") {
		t.Fatalf("want exactly one reasonless-ignore finding, got %v", diags)
	}
}

// checkIn type-checks files as the package at path against the loaded
// module and returns it with a flow index holding the whole module plus
// the package, so calls into module packages resolve to the same summaries
// as in a real run.
func checkIn(t *testing.T, m *Module, path string, files []*ast.File) (*Package, *flow.Index) {
	t.Helper()
	pkg, err := m.check(path, files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, m.index(pkg)
}
