package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
)

// literalGreedy runs Table III literally: every gain is one fresh SolveInto
// on a new Allocation, with no gain cache, no twin sharing and no price
// seed, and the eq. (23) slack accumulates the way GreedyResult documents
// it. The allocator must reproduce its lazy run bit for bit in every field
// but Evaluations, and its eager run's value and assignment.
type literalGreedy struct {
	t      *testing.T
	p      *ChannelProblem
	solver Solver
	nCh    int
	res    *GreedyResult
	alive  []bool
	left   int
	cur    float64
	slack  boundSlack
	// evaluated maps (FBS, posterior bits) to the candidate last evaluated
	// with them this round; shared counts the evaluations of a candidate
	// whose twin, of the same FBS and posterior bits, was evaluated earlier
	// in the round: the allocator copies such a gain instead of solving it.
	evaluated map[[2]uint64]int
	shared    int
}

func newLiteralGreedy(t *testing.T, p *ChannelProblem, solver Solver) *literalGreedy {
	n, nCh := p.Base.N(), len(p.Channels)
	l := &literalGreedy{
		t: t, p: p, solver: solver, nCh: nCh,
		res: &GreedyResult{
			Assigned:         make([][]int, n),
			G:                make([]float64, n),
			LowerBoundFactor: 1 / (1 + float64(p.Graph.MaxDegree())),
		},
		alive:     make([]bool, n*nCh),
		left:      n * nCh,
		evaluated: map[[2]uint64]int{},
	}
	for idx := range l.alive {
		l.alive[idx] = true
	}
	l.cur = l.q(l.res.G)
	return l
}

// q solves Q(g) afresh.
func (l *literalGreedy) q(g []float64) float64 {
	l.res.Evaluations++
	in := l.p.Base.WithG(g)
	a := &Allocation{}
	if err := l.solver.SolveInto(in, a); err != nil {
		l.t.Fatal(err)
	}
	return a.Objective(in)
}

// gain solves candidate idx's marginal gain on the current allocation.
func (l *literalGreedy) gain(idx int) float64 {
	fbs, c := idx/l.nCh, idx%l.nCh
	key := [2]uint64{uint64(fbs), math.Float64bits(l.p.Posteriors[c])}
	if prev, ok := l.evaluated[key]; ok && prev != idx {
		l.shared++
	}
	l.evaluated[key] = idx
	trial := append([]float64(nil), l.res.G...)
	trial[fbs] += l.p.Posteriors[c]
	return l.q(trial) - l.cur
}

// take allocates pair best of gain g. roundGains holds every live
// candidate's gain of this round (eager), or is nil, and then the live
// conflicting pairs' gains are solved afresh (lazy).
func (l *literalGreedy) take(best int, g float64, roundGains []float64) {
	fbs, c := best/l.nCh, best%l.nCh
	deg := l.p.Graph.Degree(fbs)
	live := 0
	for _, nb := range l.p.Graph.Neighbors(fbs) {
		idx := nb*l.nCh + c
		if !l.alive[idx] {
			continue
		}
		live++
		var lg float64
		if roundGains != nil {
			lg = roundGains[idx]
		} else {
			lg = l.gain(idx)
		}
		if lg = math.Min(lg, g); lg > 0 {
			l.slack.live += lg
		}
	}
	l.res.G[fbs] += l.p.Posteriors[c]
	l.res.Assigned[fbs] = append(l.res.Assigned[fbs], l.p.Channels[c])
	l.res.Steps = append(l.res.Steps, GreedyStep{FBS: fbs, Channel: l.p.Channels[c], Gain: g, Degree: deg, LiveDegree: live})
	l.cur += g
	if g > 0 {
		l.slack.full += float64(deg) * g
	}
	l.kill(best)
	for _, nb := range l.p.Graph.Neighbors(fbs) {
		l.kill(nb*l.nCh + c)
	}
	l.evaluated = map[[2]uint64]int{} // a new round
}

func (l *literalGreedy) kill(idx int) {
	if l.alive[idx] {
		l.alive[idx] = false
		l.left--
	}
}

// eager is the Table III loop: every round solves every remaining
// candidate and takes the first largest gain in ascending candidate order.
func (l *literalGreedy) eager() {
	for l.left > 0 {
		gains := make([]float64, len(l.alive))
		best, bestGain := -1, math.Inf(-1)
		for idx, ok := range l.alive {
			if !ok {
				continue
			}
			if gains[idx] = l.gain(idx); gains[idx] > bestGain {
				best, bestGain = idx, gains[idx]
			}
		}
		l.take(best, bestGain, gains)
	}
}

// lazy is Table III under lazy evaluation, on the allocator's max-heap
// with the same sift rules, so exact gain ties — twins tie by construction,
// and saturated users tie too — break in the same heap order: pop the best
// cached gain, re-solve it when it is stale, take it when it is current.
func (l *literalGreedy) lazy() {
	var heap []lazyEntry
	push := func(e lazyEntry) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0 && heap[(i-1)/2].gain < heap[i].gain; i = (i - 1) / 2 {
			heap[(i-1)/2], heap[i] = heap[i], heap[(i-1)/2]
		}
	}
	pop := func() lazyEntry {
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		for i := 0; ; {
			largest := i
			for _, ch := range []int{2*i + 1, 2*i + 2} {
				if ch < len(heap) && heap[ch].gain > heap[largest].gain {
					largest = ch
				}
			}
			if largest == i {
				return top
			}
			heap[i], heap[largest] = heap[largest], heap[i]
			i = largest
		}
	}
	for idx := range l.alive {
		push(lazyEntry{idx: idx, gain: l.gain(idx)})
	}
	round := 0
	for len(heap) > 0 {
		top := pop()
		switch {
		case !l.alive[top.idx]:
		case top.round != round:
			push(lazyEntry{idx: top.idx, gain: l.gain(top.idx), round: round})
		default:
			l.take(top.idx, top.gain, nil)
			round++
		}
	}
}

// result finishes the run: sorted channel lists, value and bounds, and the
// allocation solved afresh on the final G.
func (l *literalGreedy) result() *GreedyResult {
	res := l.res
	for i := range res.Assigned {
		sort.Ints(res.Assigned[i])
	}
	res.Value = l.cur
	res.UpperBound = l.cur + l.slack.live
	res.PaperUpperBound = l.cur + l.slack.full
	res.Alloc = &Allocation{}
	if err := l.solver.SolveInto(l.p.Base.WithG(res.G), res.Alloc); err != nil {
		l.t.Fatal(err)
	}
	return res
}

// checkTableIII runs the allocator over one solver on p and holds it to the
// literal lazy run: every result field bit for bit, and Q evaluations no
// more than the literal run's (the allocator reuses same-round gains),
// strictly fewer when some round held twins. It reports whether p had
// twins.
func checkTableIII(t *testing.T, name string, p *ChannelProblem, solver func() Solver) bool {
	t.Helper()
	l := newLiteralGreedy(t, p, solver())
	l.lazy()
	want := l.result()
	got, err := NewGreedyAllocator(solver()).Allocate(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cmp := *want
	cmp.Evaluations = got.Evaluations
	if d := greedyDiff(got, &cmp); d != "" {
		t.Errorf("%s: differs from the literal Table III run: %s", name, d)
	}
	switch {
	case l.shared > 0 && got.Evaluations >= want.Evaluations:
		t.Errorf("%s: %d Q evaluations with twin channels, literal run %d: no twin gain shared",
			name, got.Evaluations, want.Evaluations)
	case got.Evaluations > want.Evaluations:
		t.Errorf("%s: %d Q evaluations, literal run %d", name, got.Evaluations, want.Evaluations)
	}
	return l.shared > 0
}

// checkSkipBound runs the allocator on p with and without SkipBound. Under
// it both bounds read zero, every other field but Evaluations is the same
// bit for bit (LiveDegree included), and it solves no more Q evaluations.
// It returns the evaluations saved.
func checkSkipBound(t *testing.T, name string, p *ChannelProblem, solver func() Solver) int {
	t.Helper()
	skip := *p
	skip.SkipBound = true
	want, err := NewGreedyAllocator(solver()).Allocate(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := NewGreedyAllocator(solver()).Allocate(&skip)
	if err != nil {
		t.Fatalf("%s SkipBound: %v", name, err)
	}
	cmp := *want
	cmp.UpperBound, cmp.PaperUpperBound, cmp.Evaluations = 0, 0, got.Evaluations
	if d := greedyDiff(got, &cmp); d != "" {
		t.Errorf("%s: SkipBound changed the allocation: %s", name, d)
	}
	if got.Evaluations > want.Evaluations {
		t.Errorf("%s: %d Q evaluations under SkipBound, %d without", name, got.Evaluations, want.Evaluations)
	}
	return want.Evaluations - got.Evaluations
}

// tableIIIProblems draws the greedy oracles' problems: the paper's path,
// random interference graphs and metro components, on channel sets that
// repeat posteriors; a quarter of them under -short or -race.
func tableIIIProblems(t *testing.T) []*ChannelProblem {
	scale := 1
	if testing.Short() || raceEnabled {
		scale = 4
	}
	s := rng.New(1717)
	var problems []*ChannelProblem
	for i := 0; i < 40/scale; i++ {
		problems = append(problems, interferingProblem(s, 1+s.IntN(5)))
	}
	for i := 0; i < 30/scale; i++ {
		problems = append(problems, randomGraphProblem(s, 2+s.IntN(4), 0.2+0.6*s.Float64()))
	}
	for i, p := range metroProblems(t, s, netmodel.MetroPoissonSpec(40, 2), 5) {
		if i%scale == 0 {
			problems = append(problems, p)
		}
	}
	return problems
}

// oracleSolvers are the Q evaluators the greedy oracles run with.
var oracleSolvers = []struct {
	name string
	new  func() Solver
}{
	{"equilibrium", func() Solver { return &EquilibriumSolver{} }},
	{"dual", func() Solver { return NewDualSolver() }},
}

// TestGreedyMatchesTableIII holds the allocator to the literal Table III
// runs on tableIIIProblems, with the equilibrium and the dual solver as Q
// evaluators.
func TestGreedyMatchesTableIII(t *testing.T) {
	twins, runs := 0, 0
	for i, p := range tableIIIProblems(t) {
		for _, sv := range oracleSolvers {
			runs++
			if checkTableIII(t, fmt.Sprintf("problem %d %s", i, sv.name), p, sv.new) {
				twins++
			}
		}
	}
	if twins < runs/4 {
		t.Fatalf("only %d of %d runs had twin channels: the generators no longer repeat posteriors", twins, runs)
	}
}

// TestGreedySkipBoundMatches holds the allocator under SkipBound to its
// own runs without it (checkSkipBound) on tableIIIProblems, and
// requires the skip to save some Q evaluations.
func TestGreedySkipBoundMatches(t *testing.T) {
	saved := 0
	for i, p := range tableIIIProblems(t) {
		for _, sv := range oracleSolvers {
			saved += checkSkipBound(t, fmt.Sprintf("problem %d %s", i, sv.name), p, sv.new)
		}
	}
	if saved == 0 {
		t.Fatal("SkipBound saved no Q evaluation on any problem")
	}
}
