package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file extends the dataflow layer with goroutine-launch and
// closure-capture summaries: which variables a worker closure captures from
// its enclosing scope (or from package level), whether each access is a
// read or a write, and whether a write is an element store keyed by the
// task's own index. The gridslot analyzer turns these summaries into the
// deterministic-parallelism contract of the replication grids; foldorder and
// syncguard reuse the launch enumeration.

// CaptureUse is one access a closure makes to a variable it captured from
// an enclosing scope (package-level variables included).
type CaptureUse struct {
	Var     *types.Var // the captured base variable
	Pos     token.Pos  // position of the access
	Write   bool       // assignment, augmented assignment, or ++/--
	Indexed bool       // the access path goes through an element index
	ByIndex bool       // some index expression derives from an index root
	LenCap  bool       // the use is a len/cap argument (size probe, not data)
}

// ClosureSummary records how one closure body touches captured state and
// which of its locals derive from the designated task-index roots.
type ClosureSummary struct {
	Lit     *ast.FuncLit
	Uses    []CaptureUse
	Written map[*types.Var]bool // captured vars with at least one write

	derived map[types.Object]bool
}

// DerivedFromIndex reports whether obj — a parameter or local of the
// closure — is data-derived from one of the index roots the summary was
// built with.
func (cs *ClosureSummary) DerivedFromIndex(obj types.Object) bool {
	return obj != nil && cs.derived[obj]
}

// SummarizeClosure computes the capture summary of lit. roots are the
// task-index variables, typically the closure's own parameters. A local
// counts as index-derived when some definition of it references a root (or
// another derived local), so slot stores like xs[i%k] = v resolve the same
// way xs[i] = v does. When skipGo is true, statements under nested `go`
// launches are excluded — each launched closure gets its own summary with
// its own roots.
func SummarizeClosure(info *types.Info, lit *ast.FuncLit, roots []*types.Var, skipGo bool) *ClosureSummary {
	cs := &ClosureSummary{
		Lit:     lit,
		Written: make(map[*types.Var]bool),
		derived: make(map[types.Object]bool),
	}
	for _, r := range roots {
		if r != nil {
			cs.derived[r] = true
		}
	}
	cs.solveDerived(info, skipGo)
	cs.collectUses(info, skipGo)
	return cs
}

// solveDerived runs the index-derivation fixpoint over the closure body:
// an assignment whose right-hand side references a derived variable makes
// its closure-local target derived too.
func (cs *ClosureSummary) solveDerived(info *types.Info, skipGo bool) {
	for changed := true; changed; {
		changed = false
		cs.inspect(skipGo, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for k, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || cs.derived[obj] || !cs.within(obj.Pos()) {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(st.Rhs) == len(st.Lhs):
					rhs = st.Rhs[k]
				case len(st.Rhs) == 1:
					rhs = st.Rhs[0]
				}
				if rhs != nil && cs.refsDerived(info, rhs) {
					cs.derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
}

// collectUses walks the body and records one CaptureUse per access path
// rooted at a captured variable.
func (cs *ClosureSummary) collectUses(info *types.Info, skipGo bool) {
	var stack []ast.Node
	ast.Inspect(cs.Lit.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if skipGo {
			if _, isGo := n.(*ast.GoStmt); isGo {
				return false
			}
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || cs.within(v.Pos()) {
			return true
		}
		// Only classify the base of an access path: an ident that is the
		// .Sel of a selector was already covered by its base walk — except
		// for a qualified package-level variable (pkg.Var), whose base
		// resolves to the package name, not the variable.
		qualified := false
		if len(stack) >= 2 {
			if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.Sel == id {
				base, isIdent := ast.Unparen(sel.X).(*ast.Ident)
				if !isIdent {
					return true
				}
				if _, isPkg := info.ObjectOf(base).(*types.PkgName); !isPkg {
					return true
				}
				qualified = true
			}
		}
		use := cs.classify(info, stack, id, v, qualified)
		cs.Uses = append(cs.Uses, use)
		if use.Write {
			cs.Written[v] = true
		}
		return true
	})
	if len(stack) != 0 { // inspect always balances; keep the invariant loud
		panic("flow: unbalanced closure walk")
	}
}

// classify resolves the access path above the captured ident: how far the
// selector/index chain extends, whether the topmost node sits in write
// position, and whether any index along the path derives from a root.
func (cs *ClosureSummary) classify(info *types.Info, stack []ast.Node, id *ast.Ident, v *types.Var, qualified bool) CaptureUse {
	use := CaptureUse{Var: v, Pos: id.Pos()}
	top := ast.Node(id)
	i := len(stack) - 2
	if qualified {
		top = stack[i] // the pkg.Var selector is the real path base
		i--
	}
	for ; i >= 0; i-- {
		ext := false
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			ext = true
		case *ast.SelectorExpr:
			ext = p.X == top
		case *ast.StarExpr:
			ext = p.X == top
		case *ast.IndexExpr:
			if p.X == top {
				ext = true
				use.Indexed = true
				if cs.refsDerived(info, p.Index) {
					use.ByIndex = true
				}
			}
		case *ast.SliceExpr:
			ext = p.X == top
		}
		if !ext {
			break
		}
		top = stack[i]
	}
	if i >= 0 {
		switch p := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == top {
					use.Write = true
				}
			}
		case *ast.IncDecStmt:
			if p.X == top {
				use.Write = true
			}
		case *ast.CallExpr:
			if fn, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && len(p.Args) > 0 && p.Args[0] == top {
				if fn.Name == "len" || fn.Name == "cap" {
					if _, isBuiltin := info.ObjectOf(fn).(*types.Builtin); isBuiltin {
						use.LenCap = true
					}
				}
			}
		}
	}
	return use
}

// refsDerived reports whether e references any index-derived variable.
func (cs *ClosureSummary) refsDerived(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && cs.derived[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// within reports whether pos falls inside the summarized closure literal.
func (cs *ClosureSummary) within(pos token.Pos) bool {
	return cs.Lit.Pos() <= pos && pos < cs.Lit.End()
}

// inspect walks the closure body, optionally skipping nested go launches.
func (cs *ClosureSummary) inspect(skipGo bool, fn func(ast.Node) bool) {
	ast.Inspect(cs.Lit.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if skipGo {
			if _, isGo := n.(*ast.GoStmt); isGo {
				return false
			}
		}
		return fn(n)
	})
}

// GoClosures returns the func literals launched by `go` statements under
// root, in source order, paired with their launch positions.
func GoClosures(root ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, lit)
			}
		}
		return true
	})
	return out
}

// LitParams returns the declared parameter variables of a func literal in
// signature order.
func LitParams(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// IsNamedType reports whether t — after stripping pointers — is the named
// type pkgPath.name (e.g. "sync", "WaitGroup").
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
