// Package flow is the dataflow core under femtocr's interprocedural
// ownership analyzer: a module-wide function index and per-function
// escape/retention summaries. It deliberately stays small — no SSA, no
// pointer analysis — because the property aliascheck proves (a borrowed
// buffer does not outlive its call) only needs to follow values through
// direct assignments, returns, and statically resolved calls.
//
// Like the rest of the analysis suite, the package is stdlib-only (go/ast
// and go/types), so the module remains offline-buildable.
package flow

import (
	"go/ast"
	"go/types"
)

// Func is one function or method body known to the Index.
type Func struct {
	Decl *ast.FuncDecl // its body, never nil
	Info *types.Info   // type info of the declaring package
}

// Index maps function objects to their declarations across every package
// of the module, so analyzers can follow a call from one package into the
// body it resolves to in another.
type Index struct {
	funcs map[*types.Func]*Func
	sums  *Summaries
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{funcs: make(map[*types.Func]*Func)}
}

// Add registers one type-checked package. Function declarations without
// bodies (assembly or external linkage) are skipped.
func (ix *Index) Add(files []*ast.File, info *types.Info) {
	ix.sums = nil // invalidate any memoized summaries
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ix.funcs[obj] = &Func{Decl: fd, Info: info}
		}
	}
}

// FuncOf returns the indexed body of obj, or nil when the function is
// declared outside the registered packages (standard library, interface
// methods, func-typed values).
func (ix *Index) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return ix.funcs[obj]
}

// Callee statically resolves a call expression to the function object it
// invokes, or nil for builtins, type conversions, and calls through
// func-typed values. Interface method calls resolve to the interface
// method object, which FuncOf will not find — callers treat that as an
// unresolved call.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
