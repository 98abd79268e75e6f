package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"femtocr/internal/rng"
)

// allSolvers returns every scheme that must produce feasible allocations.
func allSolvers() []Solver {
	return []Solver{
		NewDualSolver(),
		&EquilibriumSolver{},
		&BruteForceSolver{},
		Heuristic1{},
		Heuristic2{},
	}
}

func TestSolversProduceFeasibleAllocations(t *testing.T) {
	root := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		s := root.SplitIndex("trial", trial)
		k := 1 + s.IntN(8)
		n := 1 + s.IntN(3)
		in := randomInstance(s, k, n)
		for _, solver := range allSolvers() {
			alloc, err := solve(solver, in)
			if err != nil {
				t.Fatalf("trial %d %T: %v", trial, solver, err)
			}
			if err := alloc.Feasible(in, 1e-9); err != nil {
				t.Fatalf("trial %d %T infeasible: %v", trial, solver, err)
			}
		}
	}
}

func TestSolversRejectInvalidInstance(t *testing.T) {
	bad := paperishInstance()
	bad.W[0] = -1
	for _, solver := range allSolvers() {
		if _, err := solve(solver, bad); !errors.Is(err, ErrBadInstance) {
			t.Errorf("%T accepted invalid instance: %v", solver, err)
		}
	}
}

// TestEquilibriumMatchesBruteForce: the polynomial-time price-equilibrium
// solver must match the exponential reference within a small tolerance on
// random instances.
func TestEquilibriumMatchesBruteForce(t *testing.T) {
	root := rng.New(7)
	brute := &BruteForceSolver{}
	eq := &EquilibriumSolver{}
	worst := 0.0
	for trial := 0; trial < 60; trial++ {
		s := root.SplitIndex("trial", trial)
		k := 1 + s.IntN(7)
		n := 1 + s.IntN(3)
		in := randomInstance(s, k, n)
		ba, err := solve(brute, in)
		if err != nil {
			t.Fatal(err)
		}
		ea, err := solve(eq, in)
		if err != nil {
			t.Fatal(err)
		}
		bv, ev := ba.Objective(in), ea.Objective(in)
		if ev > bv+1e-9 {
			t.Fatalf("trial %d: equilibrium %v beats brute force %v", trial, ev, bv)
		}
		gap := bv - ev
		if gap > worst {
			worst = gap
		}
		if gap > 5e-3 {
			t.Fatalf("trial %d: equilibrium gap %v too large (brute %v, eq %v)", trial, gap, bv, ev)
		}
	}
	t.Logf("worst equilibrium-vs-brute gap over 60 trials: %.2e", worst)
}

// TestDualNearOptimal: the paper's distributed algorithm converges to the
// optimum of the convex per-slot problem (it is provably optimum-achieving);
// verify against brute force on random instances.
func TestDualNearOptimal(t *testing.T) {
	root := rng.New(9)
	brute := &BruteForceSolver{}
	dual := NewDualSolver()
	for trial := 0; trial < 40; trial++ {
		s := root.SplitIndex("trial", trial)
		k := 1 + s.IntN(6)
		n := 1 + s.IntN(2)
		in := randomInstance(s, k, n)
		ba, err := solve(brute, in)
		if err != nil {
			t.Fatal(err)
		}
		da, err := solve(dual, in)
		if err != nil {
			t.Fatal(err)
		}
		bv, dv := ba.Objective(in), da.Objective(in)
		if dv > bv+1e-9 {
			t.Fatalf("trial %d: dual %v beats brute force %v", trial, dv, bv)
		}
		if bv-dv > 2e-2 {
			t.Fatalf("trial %d: dual gap %v too large (brute %v, dual %v)", trial, bv-dv, bv, dv)
		}
	}
}

// TestDualConvergenceTrace: with tracing enabled, the dual variables settle
// (Fig. 4(a)): late-iteration movement is far smaller than early movement.
func TestDualConvergenceTrace(t *testing.T) {
	in := paperishInstance()
	report := &DualReport{}
	solver := NewDualSolver(WithTrace(report), WithMaxIter(1500))
	if _, err := solve(solver, in); err != nil {
		t.Fatal(err)
	}
	if len(report.Trace) < 10 {
		t.Fatalf("trace has %d entries", len(report.Trace))
	}
	if len(report.Lambda) != 2 {
		t.Fatalf("lambda dim %d, want 2 (common + 1 FBS)", len(report.Lambda))
	}
	move := func(a, b []float64) float64 {
		sum := 0.0
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	early := move(report.Trace[0], report.Trace[1])
	n := len(report.Trace)
	late := move(report.Trace[n-2], report.Trace[n-1])
	if late > early/10 {
		t.Fatalf("dual variables not settling: early move %v, late move %v", early, late)
	}
}

// TestDualReportWithoutTrace: tracing only observes. The solve without
// WithTrace returns the traced solve's allocation bit for bit, and the
// caller's report is filled afresh by every traced solve.
func TestDualReportWithoutTrace(t *testing.T) {
	in := paperishInstance()
	plain, err := solve(NewDualSolver(), in)
	if err != nil {
		t.Fatal(err)
	}
	report := &DualReport{Iterations: -1, Trace: [][]float64{{42}}}
	traced := NewDualSolver(WithTrace(report))
	for pass := 0; pass < 2; pass++ {
		alloc, err := solve(traced, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alloc, plain) {
			t.Fatalf("pass %d: traced allocation %+v differs from untraced %+v", pass, alloc, plain)
		}
		if report.Iterations < 1 || len(report.Trace) != report.Iterations+1 || len(report.Lambda) != 2 {
			t.Fatalf("pass %d: report has %d iterations, %d trace rows, %d prices; want a fresh full report",
				pass, report.Iterations, len(report.Trace), len(report.Lambda))
		}
	}
}

// TestDualConstantStepStillFeasible: the paper's plain constant-step variant
// must still yield feasible allocations (via the repair step) even if it
// oscillates.
func TestDualConstantStepStillFeasible(t *testing.T) {
	in := paperishInstance()
	solver := NewDualSolver(WithConstantStep(), WithStepScale(0.01), WithMaxIter(500))
	alloc, err := solve(solver, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Feasible(in, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem1BinaryAssociation: optimal allocations never split a user
// across base stations within a slot.
func TestTheorem1BinaryAssociation(t *testing.T) {
	root := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		s := root.SplitIndex("trial", trial)
		in := randomInstance(s, 1+s.IntN(6), 1+s.IntN(2))
		for _, solver := range allSolvers() {
			alloc, err := solve(solver, in)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < in.K(); j++ {
				if alloc.Rho0[j] > 1e-12 && alloc.Rho1[j] > 1e-12 {
					t.Fatalf("%T: user %d holds shares on both base stations", solver, j)
				}
			}
		}
	}
}

// TestProposedBeatsHeuristics: on the paper-like instance the optimal
// schemes dominate both heuristics in objective value.
func TestProposedBeatsHeuristics(t *testing.T) {
	root := rng.New(13)
	for trial := 0; trial < 30; trial++ {
		s := root.SplitIndex("trial", trial)
		in := randomInstance(s, 2+s.IntN(6), 1+s.IntN(2))
		brute := &BruteForceSolver{}
		opt, err := solve(brute, in)
		if err != nil {
			t.Fatal(err)
		}
		optV := opt.Objective(in)
		for _, h := range []Solver{Heuristic1{}, Heuristic2{}} {
			a, err := solve(h, in)
			if err != nil {
				t.Fatal(err)
			}
			if v := a.Objective(in); v > optV+1e-9 {
				t.Fatalf("trial %d: %T objective %v beats optimum %v", trial, h, v, optV)
			}
		}
	}
}

func TestHeuristic1EqualSplit(t *testing.T) {
	in := paperishInstance()
	// FBS link strictly better for everyone in this instance.
	a, err := solve(Heuristic1{}, in)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if a.MBS[j] {
			t.Fatalf("user %d picked MBS despite better FBS rate", j)
		}
		if math.Abs(a.Rho1[j]-1.0/3) > 1e-12 {
			t.Fatalf("user %d share %v, want 1/3", j, a.Rho1[j])
		}
	}
}

func TestHeuristic1PrefersMBSWhenBetter(t *testing.T) {
	in := paperishInstance()
	in.G[0] = 0.1 // licensed band nearly useless this slot
	a, err := solve(Heuristic1{}, in)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if !a.MBS[j] {
			t.Fatalf("user %d stayed on FBS with G=0.1", j)
		}
	}
	if math.Abs(a.Rho0[0]-1.0/3) > 1e-12 {
		t.Fatal("equal split on common channel violated")
	}
}

func TestHeuristic2PicksBestUsers(t *testing.T) {
	in := paperishInstance() // PS1 best is user 2 (0.95), PS0 best is user 2 too
	a, err := solve(Heuristic2{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho1[2] != 1 {
		t.Fatalf("FBS should grant its slot to user 2: %+v", a)
	}
	// MBS picks the best of the remaining users 0, 1 by PS0: user 0 (0.70).
	if !a.MBS[0] || a.Rho0[0] != 1 {
		t.Fatalf("MBS should grant its slot to user 0: %+v", a)
	}
	if a.MBS[1] || a.Rho0[1] != 0 || a.Rho1[1] != 0 {
		t.Fatalf("user 1 should idle: %+v", a)
	}
}

func TestHeuristic2SingleUser(t *testing.T) {
	in := paperishInstance()
	one := &Instance{
		W: in.W[:1], R0: in.R0[:1], R1: in.R1[:1],
		PS0: in.PS0[:1], PS1: in.PS1[:1], FBS: in.FBS[:1], G: in.G,
	}
	a, err := solve(Heuristic2{}, one)
	if err != nil {
		t.Fatal(err)
	}
	// The single user is taken by the FBS; the MBS has nobody left.
	if a.Rho1[0] != 1 || a.MBS[0] {
		t.Fatalf("single user allocation %+v", a)
	}
}

func TestBruteForceLimit(t *testing.T) {
	s := rng.New(5)
	in := randomInstance(s, bruteForceMaxUsers+1, 1)
	if _, err := solve(&BruteForceSolver{}, in); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

// TestSolverZeroG: with no licensed channels available anywhere, every
// scheme must fall back to the common channel or idle, staying feasible.
func TestSolverZeroG(t *testing.T) {
	in := paperishInstance()
	in.G[0] = 0
	for _, solver := range allSolvers() {
		alloc, err := solve(solver, in)
		if err != nil {
			t.Fatalf("%T: %v", solver, err)
		}
		if err := alloc.Feasible(in, 1e-9); err != nil {
			t.Fatalf("%T: %v", solver, err)
		}
	}
	// The optimum should serve everyone from the MBS.
	opt, err := solve(&BruteForceSolver{}, in)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for j := 0; j < 3; j++ {
		sum += opt.Rho0[j]
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("common channel underused with G=0: sum rho0 = %v", sum)
	}
}

// TestObjectiveMonotoneInG: more available channels never hurt the optimum.
func TestObjectiveMonotoneInG(t *testing.T) {
	root := rng.New(17)
	brute := &BruteForceSolver{}
	for trial := 0; trial < 15; trial++ {
		s := root.SplitIndex("trial", trial)
		in := randomInstance(s, 1+s.IntN(5), 1+s.IntN(2))
		a1, err := solve(brute, in)
		if err != nil {
			t.Fatal(err)
		}
		v1 := a1.Objective(in)
		g2 := append([]float64(nil), in.G...)
		for i := range g2 {
			g2[i] += 1
		}
		in2 := in.WithG(g2)
		a2, err := solve(brute, in2)
		if err != nil {
			t.Fatal(err)
		}
		if v2 := a2.Objective(in2); v2 < v1-1e-9 {
			t.Fatalf("trial %d: objective fell from %v to %v when G grew", trial, v1, v2)
		}
	}
}

func TestRoundRobinRotation(t *testing.T) {
	in := paperishInstance()
	rr := &RoundRobin{}
	served := make(map[int]int)
	for slot := 0; slot < 9; slot++ {
		alloc, err := solve(rr, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := alloc.Feasible(in, 1e-9); err != nil {
			t.Fatal(err)
		}
		fbsServed := -1
		for j := 0; j < 3; j++ {
			if alloc.Rho1[j] == 1 {
				if fbsServed >= 0 {
					t.Fatal("two users hold the FBS band")
				}
				fbsServed = j
				served[j]++
			}
		}
		if fbsServed < 0 {
			t.Fatal("nobody holds the FBS band")
		}
	}
	// Over 9 slots each of the 3 users is served exactly 3 times.
	for j := 0; j < 3; j++ {
		if served[j] != 3 {
			t.Fatalf("user %d served %d times, want 3", j, served[j])
		}
	}
}

// TestRoundRobinBelowHeuristics: the blind baseline must not beat the
// optimal scheme and should generally trail the informed heuristics.
func TestRoundRobinBelowHeuristics(t *testing.T) {
	root := rng.New(31)
	for trial := 0; trial < 15; trial++ {
		s := root.SplitIndex("t", trial)
		in := randomInstance(s, 2+s.IntN(5), 1+s.IntN(2))
		opt, err := solve(&BruteForceSolver{}, in)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := solve(&RoundRobin{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Objective(in) > opt.Objective(in)+1e-9 {
			t.Fatalf("trial %d: round robin beats the optimum", trial)
		}
	}
}

func TestMaxThroughputGreedyFill(t *testing.T) {
	in := paperishInstance()
	in.WMax = []float64{in.W[0] + 0.5, in.W[1] + 10, in.W[2] + 10}
	a, err := solve(MaxThroughput{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Feasible(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	// All three prefer the FBS side here; the best PS1*G*R1 user is user 1
	// (0.90*3.4*0.312=0.955 vs user 2 0.95*3.4*0.243=0.785 vs user 0
	// 0.92*3.4*0.288=0.901), so user 1 is filled first up to its (large)
	// ceiling: it takes the entire slot.
	if a.Rho1[1] < 0.99 {
		t.Fatalf("best user share %v, want ~1 (winner takes all)", a.Rho1[1])
	}
}

func TestMaxThroughputRespectsCeilings(t *testing.T) {
	in := paperishInstance()
	// Tiny ceilings: the fill must spill over to the next users.
	in.WMax = []float64{in.W[0] + 0.3, in.W[1] + 0.3, in.W[2] + 0.3}
	a, err := solve(MaxThroughput{}, in)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for j := 0; j < 3; j++ {
		gain := a.Rho1[j] * in.effR1(j)
		if a.MBS[j] {
			gain = a.Rho0[j] * in.R0[j]
		}
		if gain > 0.3+1e-9 {
			t.Fatalf("user %d gain %v exceeds headroom", j, gain)
		}
		if gain > 1e-9 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("ceilinged fill served only %d users", served)
	}
}

// TestFairnessEfficiencyFrontier: max-throughput must achieve at least the
// proportional-fair objective's total expected gain, while the
// proportional-fair optimum wins on the log objective.
func TestFairnessEfficiencyFrontier(t *testing.T) {
	root := rng.New(41)
	for trial := 0; trial < 15; trial++ {
		s := root.SplitIndex("t", trial)
		in := randomInstance(s, 2+s.IntN(5), 1)
		pf, err := solve(&BruteForceSolver{}, in)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := solve(MaxThroughput{}, in)
		if err != nil {
			t.Fatal(err)
		}
		totalGain := func(a *Allocation) float64 {
			sum := 0.0
			for j := 0; j < in.K(); j++ {
				sum += a.ExpectedGain(in, j)
			}
			return sum
		}
		if totalGain(mt) < totalGain(pf)-1e-9 {
			t.Fatalf("trial %d: max-throughput gain %v below proportional-fair %v",
				trial, totalGain(mt), totalGain(pf))
		}
		if mt.Objective(in) > pf.Objective(in)+1e-9 {
			t.Fatalf("trial %d: max-throughput beats the log optimum", trial)
		}
	}
}
