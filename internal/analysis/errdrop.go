package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"femtocr/internal/analysis/flow"
)

// ErrDrop flags statement-level calls whose error result vanishes without
// the explicit `_ =` acknowledgment. A swallowed write error means a
// truncated results file that looks like a finished experiment.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "calls discarding an error result without handling or explicit _ = acknowledgment",
	Run:  runErrDrop,
}

// errDropExemptPrefixes are callees whose dropped error is conventionally
// acceptable: fmt printing to stdout, and the in-memory writers documented
// to never return an error.
var errDropExemptPrefixes = []string{
	"fmt.Print",           // fmt.Print, Printf, Println to stdout
	"(*strings.Builder).", // documented to always return nil errors
	"(*bytes.Buffer).",    // documented to panic rather than error
}

// stickyWriterTypes are writer types whose errors are captured internally
// and surfaced once via an Err method, so per-call checks are redundant.
// femtocr's cmd writers funnel output through safeio.Writer for exactly
// this reason.
var stickyWriterTypes = map[string]bool{
	"*strings.Builder":                true,
	"*bytes.Buffer":                   true,
	"*femtocr/internal/safeio.Writer": true,
}

func runErrDrop(pass *Pass) {
	errorType := types.Universe.Lookup("error").Type()
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[call]
			if !ok || !returnsError(tv.Type, errorType) {
				return true
			}
			name := "call"
			if fn := flow.Callee(pass.Info, call); fn != nil {
				name = qualifiedName(fn)
				if errDropExempt(pass, fn, call) {
					return true
				}
			}
			pass.Reportf(call.Pos(), "error result of %s is silently discarded; handle it or acknowledge with _ =", name)
			return true
		})
	}
}

// returnsError reports whether t is error or a tuple containing error.
func returnsError(t types.Type, errorType types.Type) bool {
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errorType)
}

func errDropExempt(pass *Pass, fn *types.Func, call *ast.CallExpr) bool {
	full := fn.FullName()
	for _, prefix := range errDropExemptPrefixes {
		if strings.HasPrefix(full, prefix) {
			return true
		}
	}
	// fmt.Fprint* is exempt when the destination is a sticky or in-memory
	// writer, or the process's own stdout/stderr.
	if strings.HasPrefix(full, "fmt.Fprint") && len(call.Args) > 0 {
		dst := call.Args[0]
		if tv, ok := pass.Info.Types[dst]; ok && tv.Type != nil && stickyWriterTypes[tv.Type.String()] {
			return true
		}
		if sel, ok := ast.Unparen(dst).(*ast.SelectorExpr); ok {
			if obj, ok := pass.Info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil &&
				obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
				return true
			}
		}
	}
	// Methods on sticky writers themselves.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && stickyWriterTypes[recv.Type().String()] {
		return true
	}
	return false
}
