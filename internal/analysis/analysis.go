// Package analysis is femtocr's domain-aware static-analysis suite.
//
// It holds only the checks no runtime test can replace. The golden-output,
// determinism, -race and AllocsPerRun tests already catch a wrong fold
// order, a racy grid cell, an orphaned RNG stream, a dropped unit
// conversion, a swapped index bound or a hot-path allocation. They cannot
// see a bug that leaves every output unchanged today: a randomness source
// outside internal/rng, a map-order append the test data happens not to
// expose, an exact float comparison, a swallowed write error, or a borrowed
// buffer that outlives its call. Each analyzer here enforces one such
// invariant; cmd/femtovet drives the suite over the module and exits
// nonzero on any finding so it can gate CI.
//
// The package is dependency-free by construction: it uses only the standard
// library's go/parser, go/ast, and go/types, so the module stays
// offline-buildable.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"femtocr/internal/analysis/flow"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos      token.Position // resolved file:line:column
	Analyzer string         // name of the reporting analyzer
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check of the suite. Run inspects a type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "randsource"
	Doc  string // one-line description of the enforced invariant
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Module   string // module path, e.g. "femtocr"
	Path     string // package import path, e.g. "femtocr/internal/core"
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info
	Index    *flow.Index // module-wide function index for interprocedural analyzers

	diags   []Diagnostic
	ignores map[string]map[int]bool // filename -> suppressed line -> present
}

// Rel returns the package path relative to the module root ("" for the root
// package). Path-scoped policies (the randsource allowlist) key off this.
func (p *Pass) Rel() string {
	if p.Path == p.Module {
		return ""
	}
	return strings.TrimPrefix(p.Path, p.Module+"/")
}

// Reportf records a finding at pos unless a //femtovet:ignore directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.ignores[position.Filename]; ok && lines[position.Line] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// collectIgnores scans file comments for femtovet:ignore directives. A
// well-formed directive
//
//	//femtovet:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// suppresses the named analyzers on its own line (trailing comment) and on
// the following line (standalone comment). Bare or reasonless directives
// suppress nothing; the directives meta-check flags them.
func (p *Pass) collectIgnores() {
	p.ignores = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c.Text)
				if !ok || dir.Kind != "ignore" {
					continue
				}
				if len(dir.Names) == 0 || dir.Reason == "" || !slices.Contains(dir.Names, p.Analyzer.Name) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if p.ignores[pos.Filename] == nil {
					p.ignores[pos.Filename] = make(map[int]bool)
				}
				p.ignores[pos.Filename][pos.Line] = true
				p.ignores[pos.Filename][pos.Line+1] = true
			}
		}
	}
}

// directive is one parsed //femtovet:<kind> comment.
type directive struct {
	Kind   string   // "ignore", "owns" or "borrows"; anything else is flagged
	Names  []string // the comma-separated name list after the kind
	Reason string   // the text after " -- " (mandatory for ignore)
}

// parseDirective recognizes femtovet directive comments. It returns ok
// false for ordinary comments. Every directive accepts an optional
// ` -- <text>` tail: for ignore it is the mandatory reason, for owns and
// borrows a free-form comment.
func parseDirective(comment string) (directive, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "femtovet:")
	if !ok {
		return directive{}, false
	}
	kind, arg, _ := strings.Cut(rest, " ")
	d := directive{Kind: kind}
	head, tail, hasTail := strings.Cut(arg, "--")
	if hasTail {
		d.Reason = strings.TrimSpace(tail)
	}
	for _, part := range strings.Split(head, ",") {
		if name := strings.TrimSpace(part); name != "" {
			d.Names = append(d.Names, name)
		}
	}
	return d, true
}

// funcDirs holds the ownership contracts a declaration's doc comment
// places on its parameters.
type funcDirs struct {
	Owns    map[string]bool
	Borrows map[string]bool
}

// funcDirectives parses the owns/borrows directives in fd's doc comment.
func funcDirectives(fd *ast.FuncDecl) funcDirs {
	var out funcDirs
	if fd.Doc == nil {
		return out
	}
	for _, c := range fd.Doc.List {
		d, ok := parseDirective(c.Text)
		if !ok {
			continue
		}
		switch d.Kind {
		case "owns":
			if out.Owns == nil {
				out.Owns = make(map[string]bool)
			}
			for _, n := range d.Names {
				out.Owns[n] = true
			}
		case "borrows":
			if out.Borrows == nil {
				out.Borrows = make(map[string]bool)
			}
			for _, n := range d.Names {
				out.Borrows[n] = true
			}
		}
	}
	return out
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{RandSource, MapIter, FloatEq, ErrDrop, AliasCheck, Directives}
}

// index builds the flow index aliascheck consults: the module's packages
// plus any extra package type-checked against it.
func (m *Module) index(extra ...*Package) *flow.Index {
	ix := flow.NewIndex()
	for _, pkgs := range [][]*Package{m.Packages, extra} {
		for _, pkg := range pkgs {
			ix.Add(pkg.Files, pkg.Info)
		}
	}
	return ix
}

// RunAnalyzers applies each analyzer to each package and returns all
// findings sorted by file, line, column, and analyzer name.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	ix := m.index()
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, a := range analyzers {
			diags = append(diags, m.runPass(a, pkg, ix)...)
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
		)
	})
	return diags
}

// runPass applies one analyzer to one package of (or checked against) the
// module, resolving calls through ix.
func (m *Module) runPass(a *Analyzer, pkg *Package, ix *flow.Index) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Module:   m.Path,
		Path:     pkg.Path,
		Fset:     m.Fset,
		Files:    pkg.Files,
		Info:     pkg.Info,
		Index:    ix,
	}
	pass.collectIgnores()
	a.Run(pass)
	return pass.diags
}

// enclosingFuncName returns the name of the innermost function declaration
// enclosing pos in file, or "" at package level.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	name := ""
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || n.End() <= pos {
			// Not an ancestor; skip its subtree entirely.
			if n.Pos() > pos {
				return false
			}
			return true
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			name = fd.Name.Name
		}
		return true
	})
	return name
}
