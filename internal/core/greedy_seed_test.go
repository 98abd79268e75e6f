package core

// Property gate for the seeded greedy Q-evaluations: Allocate brackets the
// common price of every Q(.) solve after the base one around the base
// Q(∅) clearing price. The seed changes how the outer bisection walks, never
// the result — the association repair absorbs the price difference — so the
// seeded allocator must reproduce a cold reference bit for bit on every
// field of the result, across the paper's path, random interference graphs,
// and connected components cut from generated metros.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"femtocr/internal/igraph"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
)

// coldQ hides the equilibrium solver's concrete type from the greedy
// allocator, which then evaluates every Q(.) as a plain cold SolveInto: no
// price seed and no per-FBS memo. It is the reference the seeded allocator
// must reproduce.
type coldQ struct{ Solver }

// greedyDiff names the first field where two greedy results differ, or
// returns "" when they are bitwise equal. A nil and an empty list are
// equal: a result refilled by AllocateInto keeps its emptied lists.
func greedyDiff(a, b *GreedyResult) string {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	stepEq := func(x, y GreedyStep) bool {
		return x.FBS == y.FBS && x.Channel == y.Channel && bitsEq(x.Gain, y.Gain) &&
			x.Degree == y.Degree && x.LiveDegree == y.LiveDegree
	}
	switch {
	case !slices.EqualFunc(a.Assigned, b.Assigned, func(x, y []int) bool { return slices.Equal(x, y) }):
		return fmt.Sprintf("Assigned %v vs %v", a.Assigned, b.Assigned)
	case len(a.G) != len(b.G):
		return "len(G)"
	case !bitsEq(a.Value, b.Value):
		return fmt.Sprintf("Value %v vs %v", a.Value, b.Value)
	case !bitsEq(a.UpperBound, b.UpperBound):
		return fmt.Sprintf("UpperBound %v vs %v", a.UpperBound, b.UpperBound)
	case !bitsEq(a.PaperUpperBound, b.PaperUpperBound):
		return fmt.Sprintf("PaperUpperBound %v vs %v", a.PaperUpperBound, b.PaperUpperBound)
	case !bitsEq(a.LowerBoundFactor, b.LowerBoundFactor):
		return fmt.Sprintf("LowerBoundFactor %v vs %v", a.LowerBoundFactor, b.LowerBoundFactor)
	case !slices.EqualFunc(a.Steps, b.Steps, stepEq):
		return fmt.Sprintf("Steps %+v vs %+v", a.Steps, b.Steps)
	case a.Evaluations != b.Evaluations:
		return fmt.Sprintf("Evaluations %d vs %d", a.Evaluations, b.Evaluations)
	case len(a.Alloc.MBS) != len(b.Alloc.MBS) || len(a.Alloc.Rho0) != len(b.Alloc.Rho0) ||
		len(a.Alloc.Rho1) != len(b.Alloc.Rho1):
		return "len(Alloc)"
	}
	for i := range a.G {
		if !bitsEq(a.G[i], b.G[i]) {
			return fmt.Sprintf("G[%d] %v vs %v", i, a.G[i], b.G[i])
		}
	}
	for j := range a.Alloc.MBS {
		if a.Alloc.MBS[j] != b.Alloc.MBS[j] || !bitsEq(a.Alloc.Rho0[j], b.Alloc.Rho0[j]) ||
			!bitsEq(a.Alloc.Rho1[j], b.Alloc.Rho1[j]) {
			return fmt.Sprintf("Alloc user %d", j)
		}
	}
	return ""
}

// randomChannels draws 1..maxCh accessed channels with posteriors in
// (0, 1], one in four repeating an earlier channel's posterior bit for bit
// (twin channels).
func randomChannels(s *rng.Stream, maxCh int) ([]int, []float64) {
	m := 1 + s.IntN(maxCh)
	chs := make([]int, m)
	pas := make([]float64, m)
	for c := range chs {
		chs[c] = c + 1
		pas[c] = 1 - s.Float64()
		if c > 0 && s.IntN(4) == 0 {
			pas[c] = pas[s.IntN(c)]
		}
	}
	return chs, pas
}

// randomGraphProblem puts 1-3 users on each of n FBSs under an Erdős–Rényi
// interference graph of edge probability p.
func randomGraphProblem(s *rng.Stream, n int, p float64) *ChannelProblem {
	fbsOf := make([]int, 0, 3*n)
	for i := 1; i <= n; i++ {
		for u := 1 + s.IntN(3); u > 0; u-- {
			fbsOf = append(fbsOf, i)
		}
	}
	in := randomInstance(s, len(fbsOf), n)
	copy(in.FBS, fbsOf)
	g := igraph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if s.Float64() < p {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	chs, pas := randomChannels(s, 5)
	return &ChannelProblem{Base: in, Graph: g, Channels: chs, Posteriors: pas}
}

// metroProblems cuts every connected component of up to maxFBS femtocells
// out of a generated metro and builds a slot problem on it the way the
// engine does (rates from the RD slope and band capacities, success
// probabilities from the links), with qualities drawn between each user's
// base layer and ceiling.
func metroProblems(t *testing.T, s *rng.Stream, spec netmodel.TopologySpec, maxFBS int) []*ChannelProblem {
	t.Helper()
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var out []*ChannelProblem
	for i := range shards {
		if len(shards[i].FBSs) > maxFBS {
			continue
		}
		sub, err := net.Subnetwork(&shards[i])
		if err != nil {
			t.Fatal(err)
		}
		k := sub.K()
		in := &Instance{
			W: make([]float64, k), R0: make([]float64, k), R1: make([]float64, k),
			PS0: make([]float64, k), PS1: make([]float64, k), FBS: make([]int, k),
			G: make([]float64, sub.NumFBS), WMax: make([]float64, k),
		}
		for j, u := range sub.Users {
			in.R0[j] = u.Seq.RD.Beta * sub.Band.B0() / float64(sub.T)
			in.R1[j] = u.Seq.RD.Beta * sub.Band.B1() / float64(sub.T)
			in.PS0[j] = u.MBSLink.SuccessProbability()
			in.PS1[j] = u.FBSLink.SuccessProbability()
			in.WMax[j] = u.Seq.MaxPSNR()
			in.W[j] = u.Seq.RD.Alpha + 0.9*s.Float64()*(in.WMax[j]-u.Seq.RD.Alpha)
			in.FBS[j] = u.FBS
		}
		chs, pas := randomChannels(s, sub.Band.M())
		out = append(out, &ChannelProblem{Base: in, Graph: sub.Graph, Channels: chs, Posteriors: pas})
	}
	return out
}

func TestGreedySeededMatchesCold(t *testing.T) {
	scale := 1
	if raceEnabled {
		scale = 5 // the cold reference has no memo; keep -race runs short
	}
	s := rng.New(2026)
	type named struct {
		name string
		p    *ChannelProblem
	}
	var problems []named
	for i := 0; i < 120/scale; i++ {
		problems = append(problems, named{fmt.Sprintf("path-%d", i), interferingProblem(s, 1+s.IntN(5))})
	}
	for i := 0; i < 80/scale; i++ {
		n := 2 + s.IntN(5)
		problems = append(problems, named{fmt.Sprintf("random-%d", i), randomGraphProblem(s, n, 0.2+0.6*s.Float64())})
	}
	for _, metro := range []struct {
		name string
		spec netmodel.TopologySpec
	}{
		{"poisson", netmodel.MetroPoissonSpec(60, 2)},
		{"grid", netmodel.MetroGridSpec(2, 3, 2)},
	} {
		cut := metroProblems(t, s, metro.spec, 8)
		if len(cut) == 0 {
			t.Fatalf("%s metro yielded no components to test", metro.name)
		}
		for i, p := range cut {
			if i%scale == 0 {
				problems = append(problems, named{fmt.Sprintf("%s-%d", metro.name, i), p})
			}
		}
	}

	seeded := NewGreedyAllocator(&EquilibriumSolver{})
	cold := NewGreedyAllocator(coldQ{&EquilibriumSolver{}})
	for _, tc := range problems {
		got, err := seeded.Allocate(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := cold.Allocate(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := greedyDiff(got, want); d != "" {
			t.Errorf("%s: seeded differs from cold: %s", tc.name, d)
		}
	}
}

// countingQ counts the SolveInto calls of the Q solver it wraps.
type countingQ struct {
	Solver
	calls int
}

func (c *countingQ) SolveInto(in *Instance, out *Allocation) error {
	c.calls++
	return c.Solver.SolveInto(in, out)
}

// TestGreedyAllocMatchesResolve: Allocate keeps the allocation of its last
// accepted pair's Q evaluation instead of solving the final G again. That
// allocation must be the one a fresh solve at res.G writes, bit for bit,
// on path, random-graph and metro-component problems, many with twin
// channels (whose shared gains leave a pair unsolved), and on problems
// without channels, where no pair is accepted and Allocate does solve.
// Through a Q solver that counts its calls, Allocate must solve once per Q
// evaluation after accepting a pair, and once more when it accepted none.
func TestGreedyAllocMatchesResolve(t *testing.T) {
	scale := 1
	if raceEnabled {
		scale = 5
	}
	s := rng.New(2031)
	var problems []*ChannelProblem
	for i := 0; i < 60/scale; i++ {
		problems = append(problems, interferingProblem(s, 1+s.IntN(5)))
		problems = append(problems, randomGraphProblem(s, 2+s.IntN(5), 0.2+0.6*s.Float64()))
	}
	problems = append(problems, metroProblems(t, s, netmodel.MetroPoissonSpec(60, 2), 8)...)
	for _, p := range problems[:len(problems)/4] {
		q := *p
		q.Channels, q.Posteriors = nil, nil
		problems = append(problems, &q)
	}
	twins, empty := 0, 0
	for _, p := range problems {
		seen := map[uint64]bool{}
		for _, pa := range p.Posteriors {
			if seen[math.Float64bits(pa)] {
				twins++
				break
			}
			seen[math.Float64bits(pa)] = true
		}
	}
	for i, p := range problems {
		counter := &countingQ{Solver: &EquilibriumSolver{}}
		for _, q := range []Solver{&EquilibriumSolver{}, counter} {
			res, err := NewGreedyAllocator(q).Allocate(p)
			if err != nil {
				t.Fatalf("problem %d: %v", i, err)
			}
			want := NewAllocation(p.Base.K())
			if err := (&EquilibriumSolver{}).SolveInto(p.Base.WithG(res.G), want); err != nil {
				t.Fatal(err)
			}
			if j := allocDiff(res.Alloc, want); j >= 0 {
				t.Fatalf("problem %d (%d steps): user %d: kept MBS=%v rho=(%v, %v), re-solve MBS=%v rho=(%v, %v)",
					i, len(res.Steps), j, res.Alloc.MBS[j], res.Alloc.Rho0[j], res.Alloc.Rho1[j], want.MBS[j], want.Rho0[j], want.Rho1[j])
			}
			if q != counter {
				continue
			}
			solves := res.Evaluations
			if len(res.Steps) == 0 {
				solves++
				empty++
			}
			if counter.calls != solves {
				t.Fatalf("problem %d: %d Q solver calls for %d evaluations and %d steps", i, counter.calls, res.Evaluations, len(res.Steps))
			}
		}
	}
	if empty == 0 || twins == 0 {
		t.Fatalf("%d runs accepted no pair and %d problems have twin channels; want both", empty, twins)
	}
}
