package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file adds escape/retention summaries on top of the index: for each
// indexed function, which parameters (and the receiver) can outlive the
// call — stored into a global, handed to sync.Pool.Put, or returned. The
// same intra-procedural engine (Tracker) follows one body's borrowed
// parameters for aliascheck.
//
// The model is deliberately optimistic where the index runs out of facts:
// calls into unindexed code (standard library, interface methods, func
// values) are assumed not to retain their arguments, and stores into a
// sibling parameter's memory stay visible to the caller rather than
// counting as retention. Under-approximating on the genuinely undecidable
// cases beats drowning the tree in false positives.

// EventKind classifies one way a tracked value can outlive the function
// call that produced or received it.
type EventKind int

const (
	// EvReturn: the value flows into a return statement or a named result.
	EvReturn EventKind = iota
	// EvStoreGlobal: the value is stored into memory reachable from a
	// package-level variable (or sent on a channel).
	EvStoreGlobal
	// EvStoreParam: the value is stored into memory reachable from another
	// parameter or the receiver (DestMask names them).
	EvStoreParam
	// EvRetainCall: the value is passed to a callee whose summary retains
	// the corresponding parameter; sync.Pool.Put counts unconditionally.
	EvRetainCall
)

// Event records one escape event and the set of tracked sources that flow
// into it.
type Event struct {
	Kind     EventKind
	Mask     uint64      // bit i set when source i flows into the event
	DestMask uint64      // EvStoreParam: sources whose memory is written
	Pos      token.Pos   // the return, store, or call argument
	Callee   *types.Func // EvRetainCall: the retaining callee
}

// ParamFlow is the per-parameter slice of a function summary.
type ParamFlow struct {
	Retained bool // stored into a global or passed to a retaining callee
	Returned bool // flows into a return value
}

// Summary is the escape/retention summary of one indexed function.
type Summary struct {
	Recv   *ParamFlow  // nil for plain functions
	Params []ParamFlow // signature order
}

// Param returns the flow of signature parameter i, treating indexes past
// the end (variadic call sites) as the last parameter.
func (s *Summary) Param(i int) ParamFlow {
	if len(s.Params) == 0 {
		return ParamFlow{}
	}
	if i >= len(s.Params) {
		i = len(s.Params) - 1
	}
	return s.Params[i]
}

// Summaries computes and memoizes per-function summaries over the index.
type Summaries struct {
	ix       *Index
	memo     map[*types.Func]*Summary
	visiting map[*types.Func]bool
}

// Summaries returns the (memoized) summary table of the index.
func (ix *Index) Summaries() *Summaries {
	if ix.sums == nil {
		ix.sums = &Summaries{
			ix:       ix,
			memo:     make(map[*types.Func]*Summary),
			visiting: make(map[*types.Func]bool),
		}
	}
	return ix.sums
}

// Of returns the summary of fn, or nil when fn is not indexed (standard
// library, interface methods) or is part of a recursion cycle still being
// summarized (optimistically treated as neither retaining nor returning).
func (s *Summaries) Of(fn *types.Func) *Summary {
	if sum, ok := s.memo[fn]; ok {
		return sum
	}
	if s.visiting[fn] {
		return nil
	}
	f := s.ix.FuncOf(fn)
	if f == nil {
		return nil
	}
	s.visiting[fn] = true
	defer delete(s.visiting, fn)

	t := NewTracker(s, f)
	recvVar := receiverVar(f)
	recvBit := -1
	if recvVar != nil {
		recvBit = t.AddSourceVar(recvVar)
	}
	paramBits := make([]int, 0, 8)
	for _, v := range paramVars(f) {
		paramBits = append(paramBits, t.AddSourceVar(v))
	}
	t.Solve()

	sum := &Summary{Params: make([]ParamFlow, len(paramBits))}
	if recvBit >= 0 {
		pf := t.flowOf(recvBit)
		sum.Recv = &pf
	}
	for i, bit := range paramBits {
		sum.Params[i] = t.flowOf(bit)
	}
	s.memo[fn] = sum
	return sum
}

// receiverVar returns the receiver variable of a method declaration, or
// nil for plain functions and anonymous receivers.
func receiverVar(f *Func) *types.Var {
	if f.Decl.Recv == nil || len(f.Decl.Recv.List) == 0 {
		return nil
	}
	names := f.Decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	v, _ := f.Info.Defs[names[0]].(*types.Var)
	return v
}

// paramVars returns the declared parameter variables of f in signature
// order; anonymous and blank parameters yield nil entries so indexes stay
// aligned with the signature.
func paramVars(f *Func) []*types.Var {
	var out []*types.Var
	if f.Decl.Type.Params == nil {
		return out
	}
	for _, field := range f.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := f.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// Tracker computes, for a set of designated source values inside one
// function body, the escape events each can reach. Aliasing follows
// direct assignments, slicing, field selection, append, and statically
// resolved calls whose summaries return a parameter.
type Tracker struct {
	sums    *Summaries
	fn      *Func
	srcVar  map[*types.Var]int
	nsrc    int
	results map[*types.Var]bool // named result variables: assignment = return
	taint   map[*types.Var]uint64
	events  []Event
	changed bool
}

// NewTracker prepares a tracker over fn's body. Register sources with
// AddSourceVar, then call Solve.
func NewTracker(sums *Summaries, fn *Func) *Tracker {
	t := &Tracker{
		sums:    sums,
		fn:      fn,
		srcVar:  make(map[*types.Var]int),
		results: make(map[*types.Var]bool),
		taint:   make(map[*types.Var]uint64),
	}
	if rt := fn.Decl.Type.Results; rt != nil {
		for _, field := range rt.List {
			for _, name := range field.Names {
				if v, ok := fn.Info.Defs[name].(*types.Var); ok {
					t.results[v] = true
				}
			}
		}
	}
	return t
}

// AddSourceVar registers a variable (typically a parameter) as a tracked
// source and returns its bit index. Nil and value-only (no reference
// payload) variables still get a bit but never produce events.
func (t *Tracker) AddSourceVar(v *types.Var) int {
	bit := t.nsrc
	t.nsrc++
	if v != nil && CarriesRef(v.Type()) {
		t.srcVar[v] = bit
	}
	return bit
}

// Events returns the escape events found by Solve.
func (t *Tracker) Events() []Event { return t.events }

// flowOf folds events into the summary view of one source bit.
func (t *Tracker) flowOf(bit int) ParamFlow {
	m := uint64(1) << bit
	var pf ParamFlow
	for _, ev := range t.events {
		if ev.Mask&m == 0 {
			continue
		}
		switch ev.Kind {
		case EvReturn:
			pf.Returned = true
		case EvStoreGlobal, EvRetainCall:
			pf.Retained = true
		}
	}
	return pf
}

// Solve runs the taint walk to a fixpoint (alias chains in practice are
// one or two hops; eight passes bound pathological cycles) and keeps the
// events of the final pass.
func (t *Tracker) Solve() {
	for i := 0; i < 8; i++ {
		t.changed = false
		t.events = t.events[:0]
		t.walk()
		if !t.changed {
			return
		}
	}
}

func (t *Tracker) walk() {
	ast.Inspect(t.fn.Decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					t.assign(x.Lhs[i], t.maskOf(x.Rhs[i]), x.Pos())
				}
			} else if len(x.Rhs) == 1 {
				m := t.maskOf(x.Rhs[0])
				for _, lhs := range x.Lhs {
					t.assign(lhs, m, x.Pos())
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					t.assign(name, t.maskOf(x.Values[i]), x.Pos())
				}
			}
		case *ast.RangeStmt:
			m := t.maskOf(x.X)
			if m != 0 {
				t.taintIdent(x.Key, m)
				t.taintIdent(x.Value, m)
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if m := t.maskOf(res); m != 0 {
					t.event(Event{Kind: EvReturn, Mask: m, Pos: res.Pos()})
				}
			}
		case *ast.SendStmt:
			if m := t.maskOf(x.Value); m != 0 {
				t.event(Event{Kind: EvStoreGlobal, Mask: m, Pos: x.Pos()})
			}
		case *ast.CallExpr:
			t.callEvents(x)
		}
		return true
	})
}

// assign routes one store: plain locals accumulate taint, named results
// count as returns, globals and parameter-rooted destinations produce
// store events.
func (t *Tracker) assign(lhs ast.Expr, mask uint64, pos token.Pos) {
	if mask == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		v, ok := t.fn.Info.ObjectOf(l).(*types.Var)
		if !ok {
			return
		}
		if t.results[v] {
			t.event(Event{Kind: EvReturn, Mask: mask, Pos: pos})
			return
		}
		if isGlobal(v) {
			t.event(Event{Kind: EvStoreGlobal, Mask: mask, Pos: pos})
			return
		}
		t.taintVar(v, mask)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		base := baseVar(t.fn.Info, lhs)
		if base == nil {
			return
		}
		if isGlobal(base) {
			t.event(Event{Kind: EvStoreGlobal, Mask: mask, Pos: pos})
			return
		}
		if bit, ok := t.srcVar[base]; ok {
			destMask := uint64(1) << bit
			if rest := mask &^ destMask; rest != 0 {
				t.event(Event{Kind: EvStoreParam, Mask: rest, DestMask: destMask, Pos: pos})
			}
			return
		}
		if dm := t.taint[base]; dm != 0 {
			// Storing into a local that aliases tracked memory.
			if rest := mask &^ dm; rest != 0 {
				t.event(Event{Kind: EvStoreParam, Mask: rest, DestMask: dm, Pos: pos})
			}
		}
	}
}

// callEvents reports sources passed to retaining callees.
func (t *Tracker) callEvents(call *ast.CallExpr) {
	info := t.fn.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if isBuiltinCall(info, call) {
		return // append/copy/len/... handled by maskOf
	}
	fn := Callee(info, call)
	var sum *Summary
	if fn != nil {
		sum = t.sums.Of(fn)
	}
	// Receiver of a method call behaves like an argument.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sum != nil && sum.Recv != nil && sum.Recv.Retained {
		if m := t.maskOf(sel.X); m != 0 {
			t.event(Event{Kind: EvRetainCall, Mask: m, Pos: sel.X.Pos(), Callee: fn})
		}
	}
	for i, arg := range call.Args {
		if !(fn != nil && isPoolPut(fn)) && (sum == nil || !sum.Param(i).Retained) {
			continue
		}
		if m := t.maskOf(arg); m != 0 {
			t.event(Event{Kind: EvRetainCall, Mask: m, Pos: arg.Pos(), Callee: fn})
		}
	}
}

// maskOf computes which sources an expression's value may alias.
func (t *Tracker) maskOf(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	var m uint64
	info := t.fn.Info
	if typ := info.TypeOf(e); typ != nil && !CarriesRef(typ) {
		return m // value types cannot carry an alias out
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		m |= t.maskOf(x.X)
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			m |= t.taint[v]
			if bit, ok := t.srcVar[v]; ok {
				m |= 1 << bit
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			m |= t.maskOf(x.X)
		}
	case *ast.StarExpr:
		m |= t.maskOf(x.X)
	case *ast.SelectorExpr:
		m |= t.maskOf(x.X)
	case *ast.IndexExpr:
		m |= t.maskOf(x.X)
	case *ast.SliceExpr:
		m |= t.maskOf(x.X)
	case *ast.TypeAssertExpr:
		m |= t.maskOf(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= t.maskOf(el)
		}
	case *ast.CallExpr:
		m |= t.callMask(x)
	case *ast.FuncLit:
		m |= t.captureMask(x)
	}
	return m
}

// callMask propagates aliases through call results: conversions and
// append pass their operands through, except a spread append operand whose
// elements carry no references (append copies them); indexed callees pass
// through the parameters their summary marks Returned.
func (t *Tracker) callMask(call *ast.CallExpr) uint64 {
	info := t.fn.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return t.maskOf(call.Args[0])
		}
		return 0
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			if id.Name == "append" {
				var m uint64
				for i, a := range call.Args {
					if i > 0 && i == len(call.Args)-1 && call.Ellipsis.IsValid() {
						if sl, ok := info.TypeOf(a).Underlying().(*types.Slice); ok && !CarriesRef(sl.Elem()) {
							continue
						}
					}
					m |= t.maskOf(a)
				}
				return m
			}
			return 0
		}
	}
	fn := Callee(info, call)
	if fn == nil {
		return 0
	}
	sum := t.sums.Of(fn)
	if sum == nil {
		return 0
	}
	var m uint64
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sum.Recv != nil && sum.Recv.Returned {
			m |= t.maskOf(sel.X)
		}
	}
	for i, arg := range call.Args {
		if sum.Param(i).Returned {
			m |= t.maskOf(arg)
		}
	}
	return m
}

// captureMask returns the union of aliases a func literal captures from
// its enclosing function; a closure value carries every captured
// reference with it.
func (t *Tracker) captureMask(lit *ast.FuncLit) uint64 {
	info := t.fn.Info
	var m uint64
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || isGlobal(v) {
			return true
		}
		// Captured iff declared outside the literal.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			m |= t.taint[v]
			if bit, ok := t.srcVar[v]; ok {
				m |= 1 << bit
			}
		}
		return true
	})
	return m
}

func (t *Tracker) taintIdent(e ast.Expr, mask uint64) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if v, ok := t.fn.Info.ObjectOf(id).(*types.Var); ok && CarriesRef(v.Type()) {
		t.taintVar(v, mask)
	}
}

func (t *Tracker) taintVar(v *types.Var, mask uint64) {
	if old := t.taint[v]; old|mask != old {
		t.taint[v] = old | mask
		t.changed = true
	}
}

func (t *Tracker) event(ev Event) {
	t.events = append(t.events, ev)
}

// baseVar walks a selector/index/star chain to the variable whose memory
// the expression designates, or nil when the base is not a variable.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isGlobal reports whether v is a package-level variable.
func isGlobal(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isBuiltinCall reports whether the call invokes a language builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// isPoolPut reports whether fn is (*sync.Pool).Put.
func isPoolPut(fn *types.Func) bool {
	return fn.Name() == "Put" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		recvIsSyncPool(fn)
}

func recvIsSyncPool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync"
}

// CarriesRef reports whether values of t can carry a reference to shared
// memory: pointers, slices, maps, channels, funcs, interfaces, and
// aggregates containing any. Strings are immutable and excluded.
func CarriesRef(t types.Type) bool {
	return carriesRef(t, make(map[types.Type]bool))
}

func carriesRef(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return carriesRef(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRef(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
