package core

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/igraph"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
)

// interferingProblem builds a paper-like interfering scenario: 3 FBSs on a
// path graph (Fig. 5), 3 users each, a set of accessed channels. One channel
// in four repeats an earlier channel's posterior bit for bit, as channels
// with equal sensing histories do, so the greedy sees twin channels.
func interferingProblem(s *rng.Stream, numChannels int) *ChannelProblem {
	in := randomInstance(s, 9, 3)
	for j := 0; j < 9; j++ {
		in.FBS[j] = j/3 + 1 // users 0-2 on FBS 1, 3-5 on FBS 2, 6-8 on FBS 3
	}
	channels := make([]int, numChannels)
	posteriors := make([]float64, numChannels)
	for c := 0; c < numChannels; c++ {
		channels[c] = c + 1
		posteriors[c] = 0.5 + 0.5*s.Float64()
		if c > 0 && s.IntN(4) == 0 {
			posteriors[c] = posteriors[s.IntN(c)]
		}
	}
	return &ChannelProblem{
		Base:       in,
		Graph:      igraph.Path(3),
		Channels:   channels,
		Posteriors: posteriors,
	}
}

// exhaustiveChannelOpt wraps the exported ground-truth enumerator.
func exhaustiveChannelOpt(t *testing.T, p *ChannelProblem, solver Solver) float64 {
	t.Helper()
	best, err := ExhaustiveChannelOptimum(p, solver)
	if err != nil {
		t.Fatal(err)
	}
	return best
}

// allIndependentSets lists every independent set of the graph, maximal or
// not, in ascending bitmask order: the enumeration ExhaustiveChannelOptimum
// ran before it kept only the maximal sets.
func allIndependentSets(g *igraph.Graph) [][]int {
	var sets [][]int
	for mask := 0; mask < 1<<g.N(); mask++ {
		var set []int
		for i := 0; i < g.N(); i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		if g.IsIndependent(set) {
			sets = append(sets, set)
		}
	}
	return sets
}

// TestExhaustiveMaximalSetsSuffice: Q is nondecreasing in G, so the best
// allocation over maximal independent sets is the best over all of them,
// bit for bit, on random interference graphs and metro components with up
// to three channels.
func TestExhaustiveMaximalSetsSuffice(t *testing.T) {
	s := rng.New(23)
	var problems []*ChannelProblem
	for i := 0; i < 60; i++ {
		problems = append(problems, randomGraphProblem(s, 1+s.IntN(4), 0.2+0.6*s.Float64()))
	}
	problems = append(problems, metroProblems(t, s, netmodel.MetroPoissonSpec(40, 2), 4)...)
	if raceEnabled {
		problems = problems[:len(problems)/4]
	}
	fewer := 0
	for i, p := range problems {
		if len(p.Channels) > 3 {
			p.Channels, p.Posteriors = p.Channels[:3], p.Posteriors[:3]
		}
		got, err := ExhaustiveChannelOptimum(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := allIndependentSets(p.Graph)
		want, err := bestOverSets(p, nil, all)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("problem %d (%d FBSs, %d edges, %d channels): maximal sets give %v, all sets %v",
				i, p.Graph.N(), p.Graph.NumEdges(), len(p.Channels), got, want)
		}
		if len(maximalIndependentSets(p.Graph)) < len(all) {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("no problem had a non-maximal independent set to skip")
	}
}

func TestGreedyValidation(t *testing.T) {
	s := rng.New(1)
	p := interferingProblem(s, 3)
	g := NewGreedyAllocator(nil)

	bad := *p
	bad.Base = nil
	if _, err := g.Allocate(&bad); !errors.Is(err, ErrBadChannelProblem) {
		t.Fatalf("nil base err = %v", err)
	}
	bad = *p
	bad.Graph = nil
	if _, err := g.Allocate(&bad); !errors.Is(err, ErrBadChannelProblem) {
		t.Fatalf("nil graph err = %v", err)
	}
	bad = *p
	bad.Graph = igraph.Path(2)
	if _, err := g.Allocate(&bad); !errors.Is(err, ErrBadChannelProblem) {
		t.Fatalf("graph size mismatch err = %v", err)
	}
	bad = *p
	bad.Posteriors = bad.Posteriors[:1]
	if _, err := g.Allocate(&bad); !errors.Is(err, ErrBadChannelProblem) {
		t.Fatalf("posterior length err = %v", err)
	}
	bad = *p
	bad.Posteriors = append([]float64(nil), p.Posteriors...)
	bad.Posteriors[0] = 1.5
	if _, err := g.Allocate(&bad); !errors.Is(err, ErrBadChannelProblem) {
		t.Fatalf("posterior range err = %v", err)
	}
}

// TestGreedyInterferenceConstraint: adjacent FBSs never share a channel
// (Lemma 4), and non-adjacent ones may.
func TestGreedyInterferenceConstraint(t *testing.T) {
	root := rng.New(2)
	g := NewGreedyAllocator(nil)
	for trial := 0; trial < 10; trial++ {
		p := interferingProblem(root.SplitIndex("t", trial), 4)
		res, err := g.Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		has := func(fbs, ch int) bool {
			for _, c := range res.Assigned[fbs] {
				if c == ch {
					return true
				}
			}
			return false
		}
		for _, ch := range p.Channels {
			for u := 0; u < 3; u++ {
				for v := u + 1; v < 3; v++ {
					if p.Graph.HasEdge(u, v) && has(u, ch) && has(v, ch) {
						t.Fatalf("adjacent FBSs %d,%d share channel %d", u+1, v+1, ch)
					}
				}
			}
		}
	}
}

// TestGreedyChannelsFullyUsed: with positive gains everywhere, every channel
// ends up allocated to a maximal independent set; in particular the path
// graph lets FBS 1 and FBS 3 reuse the same channel.
func TestGreedySpatialReuse(t *testing.T) {
	s := rng.New(3)
	p := interferingProblem(s, 2)
	res, err := NewGreedyAllocator(nil).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every channel is used by at least one FBS.
	used := make(map[int]int)
	for _, chans := range res.Assigned {
		for _, c := range chans {
			used[c]++
		}
	}
	for _, ch := range p.Channels {
		if used[ch] == 0 {
			t.Fatalf("channel %d unallocated", ch)
		}
	}
	// Spatial reuse must occur: with 2 channels and the path graph, the
	// greedy exhausts the candidate set, so total assignments exceed the
	// channel count (FBS 1 and 3 can share).
	total := 0
	for _, cnt := range used {
		total += cnt
	}
	if total <= len(p.Channels) {
		t.Fatalf("no spatial reuse: %d assignments for %d channels", total, len(p.Channels))
	}
}

// TestGreedyBounds: the exhaustive channel-allocation optimum lies between
// the Theorem 2 lower bound and the eq. (23) upper bound. Theorem 2 is held
// on the gain the channels add above Q(∅), the same solver's objective at
// G = 0: by eq. (23), Σ_l Δ_l = Q(greedy) − Q(∅), so
// Q(greedy) − Q(∅) ≥ (Q(opt) − Q(∅))/(1 + Dmax). The raw form is the weaker
// corollary and cannot fail at Q ≈ 30, where the channels add under 0.1.
func TestGreedyBounds(t *testing.T) {
	root := rng.New(4)
	solver := &EquilibriumSolver{}
	g := NewGreedyAllocator(solver)
	for trial := 0; trial < 6; trial++ {
		p := interferingProblem(root.SplitIndex("t", trial), 3)
		res, err := g.Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		opt := exhaustiveChannelOpt(t, p, solver)
		if res.Value > opt+1e-6 {
			t.Fatalf("trial %d: greedy %v beats exhaustive optimum %v", trial, res.Value, opt)
		}
		if opt > res.UpperBound+1e-6 {
			t.Fatalf("trial %d: optimum %v exceeds tightened eq.(23) bound %v", trial, opt, res.UpperBound)
		}
		if res.UpperBound > res.PaperUpperBound+1e-9 {
			t.Fatalf("trial %d: tightened bound %v exceeds paper bound %v", trial, res.UpperBound, res.PaperUpperBound)
		}
		if opt > res.PaperUpperBound+1e-6 {
			t.Fatalf("trial %d: optimum %v exceeds paper eq.(23) bound %v", trial, opt, res.PaperUpperBound)
		}
		if res.LowerBoundFactor != 1.0/3 {
			t.Fatalf("path graph Dmax=2 should give factor 1/3, got %v", res.LowerBoundFactor)
		}
		none := p.Base.WithG(make([]float64, p.Base.N()))
		empty, err := solve(solver, none)
		if err != nil {
			t.Fatal(err)
		}
		q0 := empty.Objective(none)
		gain, optGain := res.Value-q0, opt-q0
		if !(optGain > 0) {
			t.Fatalf("trial %d: the channels add no gain: Q(opt) %v, Q(∅) %v", trial, opt, q0)
		}
		if gain < res.LowerBoundFactor*optGain {
			t.Fatalf("trial %d: greedy gain %v below Theorem 2's %v of the optimum's gain %v",
				trial, gain, res.LowerBoundFactor, optGain)
		}
		t.Logf("trial %d: gain ratio greedy/opt %.3f", trial, gain/optGain)
	}
}

// TestGreedyNoInterferenceGetsEverything: with an edgeless graph every FBS
// receives every channel (the Table II case), and the eq. (23) bound is
// tight: Dmax = 0 so greedy is optimal.
func TestGreedyNoInterferenceGetsEverything(t *testing.T) {
	s := rng.New(5)
	p := interferingProblem(s, 3)
	p.Graph = igraph.New(3) // no edges
	res, err := NewGreedyAllocator(nil).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(res.Assigned[i]) != 3 {
			t.Fatalf("FBS %d got %v, want all 3 channels", i+1, res.Assigned[i])
		}
	}
	if res.UpperBound != res.Value || res.PaperUpperBound != res.Value {
		t.Fatalf("Dmax=0: bounds %v/%v should equal value %v", res.UpperBound, res.PaperUpperBound, res.Value)
	}
	if res.LowerBoundFactor != 1 {
		t.Fatalf("Dmax=0: factor %v, want 1", res.LowerBoundFactor)
	}
	wantG := 0.0
	for _, pa := range p.Posteriors {
		wantG += pa
	}
	for i, gv := range res.G {
		if math.Abs(gv-wantG) > 1e-12 {
			t.Fatalf("G[%d] = %v, want %v", i, gv, wantG)
		}
	}
}

// TestGreedyLazyMatchesEager: the allocator's lazy loop must reproduce the
// value and the channel assignment of the literal eager loop, which
// re-evaluates every candidate each round, while evaluating Q no more
// often than that loop would with twin gains shared.
func TestGreedyLazyMatchesEager(t *testing.T) {
	root := rng.New(6)
	for trial := 0; trial < 6; trial++ {
		p := interferingProblem(root.SplitIndex("t", trial), 4)
		l := newLiteralGreedy(t, p, &EquilibriumSolver{})
		l.eager()
		eager := l.result()
		eager.Evaluations -= l.shared
		lazy, err := NewGreedyAllocator(&EquilibriumSolver{}).Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eager.Value-lazy.Value) > 1e-9 {
			t.Fatalf("trial %d: eager %v != lazy %v", trial, eager.Value, lazy.Value)
		}
		for i := range eager.Assigned {
			if len(eager.Assigned[i]) != len(lazy.Assigned[i]) {
				t.Fatalf("trial %d FBS %d: eager %v vs lazy %v", trial, i+1, eager.Assigned[i], lazy.Assigned[i])
			}
			for c := range eager.Assigned[i] {
				if eager.Assigned[i][c] != lazy.Assigned[i][c] {
					t.Fatalf("trial %d FBS %d: eager %v vs lazy %v", trial, i+1, eager.Assigned[i], lazy.Assigned[i])
				}
			}
		}
		if lazy.Evaluations > eager.Evaluations {
			t.Fatalf("trial %d: lazy used %d evaluations, eager %d", trial, lazy.Evaluations, eager.Evaluations)
		}
	}
}

// TestGreedyGainsSubmodular: the recorded step gains are non-increasing —
// the empirical signature of Property 1 that justifies both the eq. (23)
// bound and lazy evaluation.
func TestGreedyGainsSubmodular(t *testing.T) {
	root := rng.New(8)
	for trial := 0; trial < 5; trial++ {
		p := interferingProblem(root.SplitIndex("t", trial), 4)
		res, err := NewGreedyAllocator(&EquilibriumSolver{}).Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Steps); i++ {
			if res.Steps[i].Gain > res.Steps[i-1].Gain+1e-6 {
				t.Fatalf("trial %d: gain increased at step %d: %v -> %v",
					trial, i, res.Steps[i-1].Gain, res.Steps[i].Gain)
			}
		}
	}
}

// TestGreedyAllocateIntoReuse runs problems back to back through one
// GreedyResult, as sim.Allocator does every slot: N, K and the channel
// count grow, then shrink; a problem under SkipBound follows ones that
// tracked the bound; one problem has no channel, so it accepts no pair;
// and one has twin channels. Each result must equal a fresh Allocate's bit
// for bit, so nothing of an earlier problem leaks into a later one.
func TestGreedyAllocateIntoReuse(t *testing.T) {
	s := rng.New(41)
	problem := func(n, usersPerFBS, channels int, graph *igraph.Graph) *ChannelProblem {
		in := randomInstance(s, n*usersPerFBS, n)
		for j := range in.FBS {
			in.FBS[j] = j/usersPerFBS + 1
		}
		chs := make([]int, channels)
		pas := make([]float64, channels)
		for c := range chs {
			chs[c] = c + 1
			pas[c] = 0.5 + 0.5*s.Float64()
		}
		return &ChannelProblem{Base: in, Graph: graph, Channels: chs, Posteriors: pas}
	}
	twins := problem(3, 3, 4, igraph.Path(3))
	twins.Posteriors[3] = twins.Posteriors[1]
	skip := problem(3, 2, 2, igraph.Path(3))
	skip.SkipBound = true
	cases := []struct {
		name string
		p    *ChannelProblem
	}{
		{"2 FBSs, 1 channel", problem(2, 1, 1, igraph.Path(2))},
		{"3 FBSs, twin channels", twins},
		{"5-clique, 6 channels", problem(5, 2, 6, igraph.Complete(5))},
		{"3 FBSs, SkipBound", skip},
		{"no channels", problem(3, 3, 0, igraph.Path(3))},
		{"1 FBS, 3 channels", problem(1, 2, 3, igraph.New(1))},
	}
	g := NewGreedyAllocator(nil)
	var res GreedyResult
	for _, tc := range cases {
		want, err := g.Allocate(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := g.AllocateInto(tc.p, &res); err != nil {
			t.Fatalf("%s: AllocateInto: %v", tc.name, err)
		}
		if d := greedyDiff(&res, want); d != "" {
			t.Errorf("%s: reused result differs from a fresh one: %s", tc.name, d)
		}
	}
}

// TestGreedyEmptyChannelSet: with no accessed channels the greedy returns
// the MBS-only allocation.
func TestGreedyEmptyChannelSet(t *testing.T) {
	s := rng.New(9)
	p := interferingProblem(s, 0)
	res, err := NewGreedyAllocator(nil).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("steps = %v, want none", res.Steps)
	}
	if res.UpperBound != res.Value {
		t.Fatal("no steps: bound must equal value")
	}
	if err := res.Alloc.Feasible(p.Base.WithG(res.G), 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyStepDegreeRecorded: each step's Degree is the chosen FBS's
// degree in the interference graph (Lemma 8).
func TestGreedyStepDegreeRecorded(t *testing.T) {
	s := rng.New(10)
	p := interferingProblem(s, 2)
	res, err := NewGreedyAllocator(nil).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Steps {
		if st.Degree != p.Graph.Degree(st.FBS) {
			t.Fatalf("step %+v records degree %d, graph says %d", st, st.Degree, p.Graph.Degree(st.FBS))
		}
	}
}

// TestGreedySingleFBSOptimal: with one FBS (Dmax = 0) greedy gives it every
// channel and Theorem 2 says the result is optimal.
func TestGreedySingleFBSOptimal(t *testing.T) {
	s := rng.New(11)
	in := randomInstance(s, 3, 1)
	p := &ChannelProblem{
		Base:       in,
		Graph:      igraph.New(1),
		Channels:   []int{1, 2, 3},
		Posteriors: []float64{0.9, 0.8, 0.7},
	}
	res, err := NewGreedyAllocator(nil).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.G[0]-2.4) > 1e-12 {
		t.Fatalf("G = %v, want 2.4", res.G[0])
	}
	if res.LowerBoundFactor != 1 || res.UpperBound != res.Value {
		t.Fatal("single FBS must be provably optimal")
	}
}
