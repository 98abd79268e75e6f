package analysis

import (
	"go/ast"
	"sort"
)

// Directives is the meta-check over femtovet's own comment directives. An
// ignore without an analyzer name silences the whole suite, and one
// without a reason is unauditable. The ownership directives (owns,
// borrows) must sit in a function's doc comment and name real parameters:
// a typo would silently drop the contract. Any other directive kind is
// flagged, so an annotation for a retired analyzer cannot linger as a
// comment that looks enforced.
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "malformed femtovet directives: bare or reasonless ignores, unknown analyzers or directive kinds, misplaced or misnamed owns/borrows",
	Run:  runDirectives,
}

// knownAnalyzers lists the suite's analyzer names. Kept as a literal (not
// derived from All) to avoid an initialization cycle: All references
// Directives, which runs this check.
var knownAnalyzers = map[string]bool{
	"randsource": true,
	"mapiter":    true,
	"floateq":    true,
	"errdrop":    true,
	"aliascheck": true,
	"directives": true,
}

func runDirectives(pass *Pass) {
	for _, file := range pass.Files {
		docOf := docComments(file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				checkDirective(pass, c, d, docOf[c])
			}
		}
		checkOwnershipOverlap(pass, file)
	}
}

// docComments maps each comment that is part of a function declaration's
// doc group to the declaration it documents.
func docComments(file *ast.File) map[*ast.Comment]*ast.FuncDecl {
	out := make(map[*ast.Comment]*ast.FuncDecl)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			out[c] = fd
		}
	}
	return out
}

func checkDirective(pass *Pass, c *ast.Comment, d directive, fd *ast.FuncDecl) {
	switch d.Kind {
	case "ignore":
		if len(d.Names) == 0 {
			pass.Reportf(c.Pos(), "bare femtovet:ignore suppresses nothing; name the analyzer(s): //femtovet:ignore <analyzer> -- <reason>")
			return
		}
		for _, name := range d.Names {
			if !knownAnalyzers[name] {
				pass.Reportf(c.Pos(), "femtovet:ignore names unknown analyzer %q", name)
			}
		}
		if d.Reason == "" {
			pass.Reportf(c.Pos(), "femtovet:ignore without a reason suppresses nothing; append ` -- <reason>`")
		}
	case "owns", "borrows":
		if fd == nil {
			pass.Reportf(c.Pos(), "femtovet:%s must appear in a function's doc comment; it names that function's parameters", d.Kind)
			return
		}
		if len(d.Names) == 0 {
			pass.Reportf(c.Pos(), "femtovet:%s needs a comma-separated parameter list, e.g. //femtovet:%s in, out", d.Kind, d.Kind)
			return
		}
		declared := declaredParamNames(fd)
		for _, name := range d.Names {
			if !declared[name] {
				pass.Reportf(c.Pos(), "femtovet:%s names %q, which is not a parameter or receiver of %s", d.Kind, name, fd.Name.Name)
			}
		}
	default:
		pass.Reportf(c.Pos(), "unknown femtovet directive %q (known: ignore, owns, borrows)", d.Kind)
	}
}

// checkOwnershipOverlap flags a parameter claimed by both owns and borrows
// on one declaration.
func checkOwnershipOverlap(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		dirs := funcDirectives(fd)
		both := make([]string, 0, len(dirs.Owns))
		for name := range dirs.Owns {
			if dirs.Borrows[name] {
				both = append(both, name)
			}
		}
		sort.Strings(both)
		for _, name := range both {
			pass.Reportf(fd.Doc.Pos(), "parameter %q of %s is claimed by both femtovet:owns and femtovet:borrows; the contracts are mutually exclusive", name, fd.Name.Name)
		}
	}
}

// declaredParamNames collects the receiver and parameter names of a
// declaration.
func declaredParamNames(fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
	}
	return out
}
