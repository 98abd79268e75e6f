package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"femtocr/internal/analysis/flow"
)

// GridSlot machine-checks the deterministic-parallelism contract of
// par.RunGrid and the experiment drivers' runGrid cell callbacks: a worker
// closure (any function literal handed to a runGrid or RunGrid call) may
// write only into its own preallocated slot — an element store keyed by
// the task's own index — and must leave every shared accumulator untouched
// until the post-join barrier. The same slot-ownership rule applies to every closure launched
// with `go`, keyed by the closure's own parameters. Writes that are safe
// for an out-of-band reason (an atomic dispatch counter claiming each
// index exactly once, external locking) carry an explicit
// //femtovet:shared -- <reason> on the write or on the variable's
// declaration. Method calls on sync/atomic values and sync.WaitGroup are
// synchronization, not shared-state traffic, and pass untouched.
var GridSlot = &Analyzer{
	Name: "gridslot",
	Doc:  "deterministic-parallelism contract: grid workers and go closures must write only their own task-indexed slot; shared writes need sync/atomic or //femtovet:shared",
	Run:  runGridSlot,
}

func runGridSlot(pass *Pass) {
	shared := sharedDirectiveLines(pass)
	for _, file := range pass.Files {
		// Closures handed to runGrid/RunGrid: the task index is the
		// closure's own parameter.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := flow.Callee(pass.Info, call)
			if fn == nil || (fn.Name() != "runGrid" && fn.Name() != "RunGrid") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWorkerClosure(pass, lit, shared, "grid worker")
				}
			}
			return true
		})
		// Closures launched with `go`, anywhere in the file (including
		// inside grid workers, which skip them in their own summaries).
		for _, lit := range flow.GoClosures(file) {
			checkWorkerClosure(pass, lit, shared, "goroutine")
		}
	}
}

// checkWorkerClosure summarizes one worker closure and reports the
// accesses that break slot ownership.
func checkWorkerClosure(pass *Pass, lit *ast.FuncLit, shared map[string]map[int]bool, kind string) {
	cs := flow.SummarizeClosure(pass.Info, lit, flow.LitParams(pass.Info, lit), true)
	for _, use := range cs.Uses {
		if isSyncVar(use.Var) {
			continue
		}
		switch {
		case use.Write && !use.ByIndex:
			if sharedExempt(pass, shared, use.Pos, use.Var) {
				continue
			}
			if isBoolVar(use.Var) {
				pass.Reportf(use.Pos,
					"%s writes captured flag %s without synchronization: a non-atomic flag races with sibling tasks; use atomic.Bool or annotate //femtovet:shared -- <reason>",
					kind, use.Var.Name())
				continue
			}
			pass.Reportf(use.Pos,
				"%s writes captured %s, which is not indexed by the task's own index: each task may write only its own slot (xs[i] = ...); annotate //femtovet:shared -- <reason> if synchronization makes this exclusive",
				kind, use.Var.Name())
		case !use.Write && !use.LenCap && cs.Written[use.Var] && !use.ByIndex:
			if sharedExempt(pass, shared, use.Pos, use.Var) {
				continue
			}
			pass.Reportf(use.Pos,
				"%s reads captured %s, which tasks also write: a cross-slot read races with sibling tasks before the post-join barrier; aggregate after the join in index order",
				kind, use.Var.Name())
		}
	}
}

// sharedDirectiveLines collects the effective //femtovet:shared directives
// (reason required) by file and line; a directive covers its own line and
// the next, like ignore.
func sharedDirectiveLines(pass *Pass) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok || d.Kind != "shared" || d.Reason == "" {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]bool)
				}
				out[pos.Filename][pos.Line] = true
				out[pos.Filename][pos.Line+1] = true
			}
		}
	}
	return out
}

// sharedExempt reports whether a use is covered by a shared directive on
// the access itself or on the captured variable's declaration.
func sharedExempt(pass *Pass, shared map[string]map[int]bool, usePos token.Pos, v *types.Var) bool {
	use := pass.Fset.Position(usePos)
	if lines, ok := shared[use.Filename]; ok && lines[use.Line] {
		return true
	}
	decl := pass.Fset.Position(v.Pos())
	if lines, ok := shared[decl.Filename]; ok && lines[decl.Line] {
		return true
	}
	return false
}

// isSyncVar reports whether the variable's type belongs to sync or
// sync/atomic: method traffic on those values is synchronization by
// definition, not unshielded shared state.
func isSyncVar(v *types.Var) bool {
	for _, name := range []string{"WaitGroup", "Mutex", "RWMutex", "Once"} {
		if flow.IsNamedType(v.Type(), "sync", name) {
			return true
		}
	}
	for _, name := range []string{"Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value"} {
		if flow.IsNamedType(v.Type(), "sync/atomic", name) {
			return true
		}
	}
	return false
}

// isBoolVar reports whether the variable is a plain (non-atomic) boolean.
func isBoolVar(v *types.Var) bool {
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
