package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const src = `package p

import "sync"

var (
	stash []float64
	pool  sync.Pool
)

func identity(buf []float64) []float64 { return buf }

func keep(buf []float64) { stash = buf }

func recycle(buf []float64) { pool.Put(buf) }

func forward(buf []float64) { keep(buf) }

func fill(dst, src []float64) { copy(dst, src) }

type holder struct{ buf []float64 }

func (h *holder) set(buf []float64) { h.buf = buf }
`

func load(t *testing.T) (*ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return file, info, pkg
}

// TestIndexAndSummaries: the index resolves declarations, and the
// summaries mark a parameter Returned when it flows into a result and
// Retained when it reaches a global, sync.Pool.Put, or a retaining callee.
// A store into the receiver's memory is neither: the caller still sees it.
func TestIndexAndSummaries(t *testing.T) {
	file, info, pkg := load(t)
	ix := NewIndex()
	ix.Add([]*ast.File{file}, info)

	fn := func(name string) *types.Func {
		t.Helper()
		obj, ok := pkg.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("no function %s", name)
		}
		return obj
	}
	identity := fn("identity")
	if ix.FuncOf(identity) == nil || ix.FuncOf(identity).Decl.Name.Name != "identity" {
		t.Fatalf("FuncOf(identity) did not resolve to its declaration")
	}
	if ix.FuncOf(nil) != nil {
		t.Fatalf("FuncOf(nil) must be nil")
	}

	sums := ix.Summaries()
	cases := []struct {
		name string
		want ParamFlow
	}{
		{"identity", ParamFlow{Returned: true}},
		{"keep", ParamFlow{Retained: true}},
		{"recycle", ParamFlow{Retained: true}},
		{"forward", ParamFlow{Retained: true}},
		{"fill", ParamFlow{}},
	}
	for _, tc := range cases {
		if got := sums.Of(fn(tc.name)).Param(0); got != tc.want {
			t.Errorf("%s: param 0 flow = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	holder := pkg.Scope().Lookup("holder").Type()
	set, _, _ := types.LookupFieldOrMethod(types.NewPointer(holder), true, pkg, "set")
	if sum := sums.Of(set.(*types.Func)); sum.Param(0) != (ParamFlow{}) || *sum.Recv != (ParamFlow{}) {
		t.Errorf("set: receiver store summarized as %+v / %+v, want no retention", *sum.Recv, sum.Param(0))
	}
	if sums.Of(identity) != sums.Of(identity) {
		t.Errorf("summaries not memoized")
	}
}
