package core

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/igraph"
	"femtocr/internal/rng"
)

// FuzzWaterfill hunts for inputs where the columnar bisection produces
// negative shares, blows the budget, overflows a cap, returns NaN, or
// departs by a single bit from the scalar reference.
func FuzzWaterfill(f *testing.F) {
	f.Add(0.9, 30.0, 0.3, -1.0, 0.5, 25.0, 0.2, 0.4, 1.0)
	f.Add(0.0, 30.0, 0.0, 0.0, 1.0, 20.0, 0.5, -1.0, 0.5)
	// Degenerate corners: all-busy channels (every success probability 0),
	// perfect sensing (probabilities pinned to exactly 0 or 1, the PFA=PMD=0
	// posterior values), and a zero budget.
	f.Add(0.0, 30.0, 0.3, -1.0, 0.0, 25.0, 0.2, 0.4, 1.0)
	f.Add(1.0, 30.0, 0.3, 10.0, 0.0, 25.0, 0.2, 0.4, 2.0)
	f.Add(0.9, 30.0, 0.3, -1.0, 0.5, 25.0, 0.2, 0.4, 0.0)
	f.Fuzz(func(t *testing.T, ps1, w1, r1, cap1, ps2, w2, r2, cap2, budget float64) {
		for _, v := range []float64{ps1, w1, r1, cap1, ps2, w2, r2, cap2, budget} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		clampPS := func(p float64) float64 {
			if p < 0 {
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		clampPos := func(v, lo, hi float64) float64 {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		users := []waterfillUser{
			{ps: clampPS(ps1), w: clampPos(w1, 1, 100), r: clampPos(r1, 0, 10), cap: clampPos(cap1, -1, 100)},
			{ps: clampPS(ps2), w: clampPos(w2, 1, 100), r: clampPos(r2, 0, 10), cap: clampPos(cap2, -1, 100)},
		}
		b := clampPos(budget, 0, 10)
		checkColumnsMatchScalar(t, "fuzz", users, b)
		rho, lambda := columnsWaterfill(users, b)
		if math.IsNaN(lambda) || lambda < 0 {
			t.Fatalf("lambda = %v", lambda)
		}
		total := 0.0
		for i, r := range rho {
			if math.IsNaN(r) || r < 0 {
				t.Fatalf("rho[%d] = %v", i, r)
			}
			if c := users[i].cap; c >= 0 && r > c+1e-9 {
				t.Fatalf("rho[%d] = %v exceeds cap %v", i, r, c)
			}
			total += r
		}
		if total > b+1e-6 {
			t.Fatalf("total %v exceeds budget %v", total, b)
		}
	})
}

// FuzzSolverSession drives a warm session through a random slot sequence —
// Markov-correlated G drift, instance shape changes every shapeEvery slots,
// and at slot sabotageAt the carried price scaled by 10^logScale, which
// blows the equilibrium bracket far off the clearing price — and checks
// every warm solve against the session-less cold solve of the same
// instance, bit for bit.
func FuzzSolverSession(f *testing.F) {
	// seed, slots, shapeEvery (0: never), sabotageAt, logScale.
	f.Add(uint64(1), uint8(12), uint8(0), uint8(255), 0.0)
	f.Add(uint64(2), uint8(12), uint8(0), uint8(255), 0.0)
	f.Add(uint64(3), uint8(16), uint8(5), uint8(7), 9.0)
	f.Add(uint64(4), uint8(16), uint8(4), uint8(6), 6.0)
	f.Add(uint64(5), uint8(10), uint8(3), uint8(2), -9.0)
	f.Add(uint64(6), uint8(10), uint8(0), uint8(3), -6.0)
	f.Fuzz(func(t *testing.T, seed uint64, slots, shapeEvery, sabotageAt uint8, logScale float64) {
		if slots > 24 || math.IsNaN(logScale) || math.Abs(logScale) > 12 {
			return
		}
		solver := &EquilibriumSolver{}
		s := rng.New(seed)
		shape := func() (*Instance, *markovTrace) {
			n := 1 + s.IntN(3)
			return randomInstance(s, n+s.IntN(3*n), n), newMarkovTrace(s, n)
		}
		in, tr := shape()
		sess := NewSolverSession()
		warm, cold := &Allocation{}, &Allocation{}
		for slot := 0; slot < int(slots); slot++ {
			if shapeEvery > 0 && slot > 0 && slot%int(shapeEvery) == 0 {
				in, tr = shape()
			}
			tr.step(in.G)
			if slot == int(sabotageAt) {
				sess.l0 *= math.Pow(10, logScale)
			}
			if _, err := solver.SolveWarmInto(in, warm, sess); err != nil {
				t.Fatalf("slot %d warm: %v", slot, err)
			}
			if err := solver.SolveInto(in, cold); err != nil {
				t.Fatalf("slot %d cold: %v", slot, err)
			}
			if !sameAllocation(warm, cold) {
				t.Fatalf("slot %d: warm allocation differs from cold", slot)
			}
		}
	})
}

// FuzzGreedyChannels throws degenerate channel-allocation problems at Table
// III: zero users (must fail validation, never panic), all-busy channels
// (every posterior 0), perfect-sensing posteriors pinned to 0 or 1 (the
// PFA=PMD=0 fusion output), random posteriors that repeat one time in
// three (twin channels), and arbitrary small graphs. For valid instances
// it checks the eq. (23) bound ordering, interference feasibility of the
// assignment, NaN-freedom, the allocator against its literal Table III run
// (checkTableIII), under SkipBound against its run without it
// (checkSkipBound), and AllocateInto into a result another problem filled
// first against the fresh result.
func FuzzGreedyChannels(f *testing.F) {
	// seed, usersPerFBS, nFBS, channels, posterior override (-1: random),
	// complete graph (vs path).
	f.Add(uint64(1), 1, 3, 2, -1.0, false)
	f.Add(uint64(2), 0, 2, 2, 0.5, false) // zero users
	f.Add(uint64(3), 2, 2, 3, 0.0, false) // all channels busy
	f.Add(uint64(4), 2, 3, 2, 1.0, true)  // perfect sensing, clique
	f.Add(uint64(5), 1, 1, 4, 0.25, false)
	f.Fuzz(func(t *testing.T, seed uint64, usersPerFBS, nFBS, channels int, post float64, clique bool) {
		if nFBS < 1 || nFBS > 3 || usersPerFBS < 0 || usersPerFBS > 2 || channels < 0 || channels > 3 {
			return
		}
		if math.IsNaN(post) || post > 1 {
			return
		}
		s := rng.New(seed)
		k := nFBS * usersPerFBS
		in := randomInstance(s, k, nFBS)
		in.G = make([]float64, nFBS) // greedy determines G
		for j := 0; j < k; j++ {
			in.FBS[j] = j/max(usersPerFBS, 1) + 1
		}
		graph := igraph.Path(nFBS)
		if clique {
			graph = igraph.Complete(nFBS)
		}
		chs := make([]int, channels)
		posts := make([]float64, channels)
		for c := range chs {
			chs[c] = c + 1
			switch {
			case post >= 0:
				posts[c] = post
			case c > 0 && s.IntN(3) == 0:
				posts[c] = posts[s.IntN(c)]
			default:
				posts[c] = s.Float64()
			}
		}
		p := &ChannelProblem{Base: in, Graph: graph, Channels: chs, Posteriors: posts}

		g := NewGreedyAllocator(nil)
		res, err := g.Allocate(p)
		if k == 0 {
			if !errors.Is(err, ErrBadInstance) {
				t.Fatalf("zero users: err = %v, want ErrBadInstance", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		var reused GreedyResult
		if err := g.AllocateInto(interferingProblem(rng.New(seed+1), 1+int(seed%4)), &reused); err != nil {
			t.Fatalf("AllocateInto, earlier problem: %v", err)
		}
		if err := g.AllocateInto(p, &reused); err != nil {
			t.Fatalf("AllocateInto: %v", err)
		}
		if d := greedyDiff(&reused, res); d != "" {
			t.Fatalf("AllocateInto into a reused result differs from Allocate: %s", d)
		}
		if math.IsNaN(res.Value) || math.IsNaN(res.UpperBound) || math.IsNaN(res.PaperUpperBound) {
			t.Fatalf("NaN in results: %+v", res)
		}
		const tol = 1e-6
		if res.Value > res.UpperBound+tol {
			t.Fatalf("value %v exceeds tightened bound %v", res.Value, res.UpperBound)
		}
		if res.UpperBound > res.PaperUpperBound+tol {
			t.Fatalf("tightened bound %v exceeds eq. (23) bound %v", res.UpperBound, res.PaperUpperBound)
		}
		for i, g := range res.G {
			if g < 0 || math.IsNaN(g) {
				t.Fatalf("G[%d] = %v", i, g)
			}
		}
		// Interference feasibility: adjacent FBSs never share a channel.
		holders := make(map[int][]int)
		for i, chans := range res.Assigned {
			for _, ch := range chans {
				holders[ch] = append(holders[ch], i)
			}
		}
		for ch, fbss := range holders {
			if !graph.IsIndependent(fbss) {
				t.Fatalf("channel %d assigned to adjacent FBSs %v", ch, fbss)
			}
		}
		checkTableIII(t, "fuzz", p, func() Solver { return &EquilibriumSolver{} })
		checkSkipBound(t, "fuzz", p, func() Solver { return &EquilibriumSolver{} })
	})
}
