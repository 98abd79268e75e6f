package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"femtocr/internal/analysis/flow"
)

// MapIter flags `for range` over a map whose body accumulates into an outer
// slice without a subsequent deterministic sort, or writes output directly —
// the classic sources of run-to-run nondeterminism, since Go randomizes map
// iteration order on every run.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration that appends to a slice without a later sort, or writes output, leaking randomized order",
	Run:  runMapIter,
}

// sortCalls are the calls accepted as restoring a deterministic order after
// a map-order append.
var sortCalls = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"sort.Ints":             true,
	"sort.Strings":          true,
	"sort.Float64s":         true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

func runMapIter(pass *Pass) {
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pass.Info.TypeOf(rs.X)) {
				checkMapRange(pass, rs, enclosingBody(stack))
			}
			stack = append(stack, n)
			return true
		})
	}
}

// enclosingBody returns the body of the innermost function on the ancestor
// stack.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects the body of one map-range statement for
// order-sensitive sinks.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if target, ok := appendTarget(pass.Info, call, rs); ok {
			if !sortedAfter(pass, fnBody, rs, target) {
				pass.Reportf(call.Pos(), "append to %s inside map iteration without a subsequent deterministic sort; map order is randomized per run", target.Name())
			}
			return true
		}
		if name, ok := outputWrite(pass.Info, call, rs); ok {
			pass.Reportf(call.Pos(), "%s inside map iteration writes output in randomized map order; collect and sort first", name)
		}
		return true
	})
}

// appendTarget reports whether call is `append(x, ...)` where x is rooted at
// a variable declared outside the range statement, returning that variable.
func appendTarget(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) (types.Object, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	root := rootIdent(call.Args[0])
	if root == nil {
		return nil, false
	}
	obj := info.ObjectOf(root)
	if obj == nil || obj.Pos() == 0 {
		return nil, false
	}
	// Declared inside the loop: per-iteration slice, order-safe.
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return nil, false
	}
	return obj, true
}

// sortedAfter reports whether the enclosing function body contains, after
// the range statement, a recognized sort call whose arguments reference the
// append target.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target types.Object) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := flow.Callee(pass.Info, call)
		if fn == nil || !sortCalls[qualifiedName(fn)] {
			return true
		}
		for _, arg := range call.Args {
			refs := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.Info.ObjectOf(id) == target {
					refs = true
					return false
				}
				return true
			})
			if refs {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// outputWrite reports whether call writes output: any fmt print/fprint, or a
// Write*/Print* method whose receiver lives outside the loop (a builder or
// writer created per iteration is order-safe).
func outputWrite(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) (string, bool) {
	fn := flow.Callee(info, call)
	if fn == nil {
		return "", false
	}
	full := fn.FullName()
	if strings.HasPrefix(full, "fmt.Print") || strings.HasPrefix(full, "fmt.Fprint") {
		return full, true
	}
	name := fn.Name()
	if !strings.HasPrefix(name, "Write") && !strings.HasPrefix(name, "Print") {
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root := rootIdent(sel.X); root != nil {
			if obj := info.ObjectOf(root); obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				return "", false
			}
		}
	}
	return qualifiedName(fn), true
}

// qualifiedName renders pkg.Func for package functions and Type.Method for
// methods, without pointer or package-path noise.
func qualifiedName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// rootIdent unwraps selectors, indexes, stars, and parens to the base
// identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
