package core

import (
	"testing"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

// markovTrace drives in.G through the paper's two-state Markov chain: each
// FBS senses 5 licensed channels whose occupancy evolves independently, and
// G_i is the slot's idle count — the correlated per-slot drift the warm
// start exploits.
type markovTrace struct {
	chain  markov.Chain
	states [][]markov.State
	stream *rng.Stream
}

func newMarkovTrace(s *rng.Stream, fbss int) *markovTrace {
	chain, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		panic(err)
	}
	tr := &markovTrace{chain: chain, stream: s}
	tr.states = make([][]markov.State, fbss)
	for i := range tr.states {
		tr.states[i] = make([]markov.State, 5)
		for c := range tr.states[i] {
			tr.states[i][c] = chain.SampleStationary(s)
		}
	}
	return tr
}

func (tr *markovTrace) step(g []float64) {
	for i := range tr.states {
		idle := 0
		for c := range tr.states[i] {
			tr.states[i][c] = tr.chain.Next(tr.states[i][c], tr.stream)
			if tr.states[i][c] == markov.Idle {
				idle++
			}
		}
		g[i] = float64(idle)
	}
}

// trivialInstance is feasible even if every user claims its full share on
// both stations at once: the W ceilings cap each user's useful share at
// (WMax-W)/r = 0.04, so aggregate demand stays below every budget and all
// equilibrium prices are exactly zero.
func trivialInstance() *Instance {
	return &Instance{
		W:    []float64{30, 30},
		WMax: []float64{30.02, 30.02},
		R0:   []float64{0.5, 0.5},
		R1:   []float64{0.5, 0.5},
		PS0:  []float64{0.6, 0.6},
		PS1:  []float64{0.6, 0.6},
		FBS:  []int{1, 1},
		G:    []float64{1},
	}
}

func sameAllocation(a, b *Allocation) bool {
	for j := range a.MBS {
		if a.MBS[j] != b.MBS[j] || a.Rho0[j] != b.Rho0[j] || a.Rho1[j] != b.Rho1[j] {
			return false
		}
	}
	return true
}

// TestWarmMatchesColdAllocations is the warm-start correctness gate at the
// core layer: across Markov-correlated traces, every warm solve's repaired
// allocation must be byte-identical to the session-less cold solve of the
// same instance, for both warm-capable solvers. The multipliers may differ
// within the convergence tolerance; the discrete repair must absorb that.
func TestWarmMatchesColdAllocations(t *testing.T) {
	solvers := []struct {
		name   string
		solver WarmSolver
	}{
		{"dual", NewDualSolver()},
		{"equilibrium", &EquilibriumSolver{}},
	}
	for _, tc := range solvers {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				s := rng.New(seed)
				in := randomInstance(s, 9, 3)
				tr := newMarkovTrace(s, 3)
				sess := NewSolverSession()
				warm := NewAllocation(in.K())
				cold := NewAllocation(in.K())
				for slot := 0; slot < 40; slot++ {
					tr.step(in.G)
					if err := tc.solver.SolveWarmInto(in, warm, sess); err != nil {
						t.Fatal(err)
					}
					if err := tc.solver.SolveInto(in, cold); err != nil {
						t.Fatal(err)
					}
					if !sameAllocation(warm, cold) {
						t.Fatalf("seed %d slot %d: warm and cold allocations differ", seed, slot)
					}
				}
				st := sess.Stats()
				if st.Solves != 40 {
					t.Fatalf("seed %d: recorded %d solves, want 40", seed, st.Solves)
				}
				if st.WarmSolves == 0 {
					t.Fatalf("seed %d: no warm solve happened; the test is vacuous", seed)
				}
			}
		})
	}
}

// TestWarmMatchesColdTrivialSlots covers the trivial-feasibility
// short-circuit: warm sessions skip the subgradient loop entirely on slots
// whose demand fits every budget at the price floor, and the zero-price
// repair must equal the legacy cold dynamics (which walk the prices to
// exactly zero).
func TestWarmMatchesColdTrivialSlots(t *testing.T) {
	in := trivialInstance()
	for _, tc := range []struct {
		name   string
		solver WarmSolver
	}{
		{"dual", NewDualSolver()},
		{"equilibrium", &EquilibriumSolver{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := NewSolverSession()
			warm := NewAllocation(in.K())
			cold := NewAllocation(in.K())
			for slot := 0; slot < 3; slot++ {
				if err := tc.solver.SolveWarmInto(in, warm, sess); err != nil {
					t.Fatal(err)
				}
				if err := tc.solver.SolveInto(in, cold); err != nil {
					t.Fatal(err)
				}
				if !sameAllocation(warm, cold) {
					t.Fatalf("slot %d: trivial warm and cold allocations differ", slot)
				}
			}
			st := sess.Stats()
			if st.TrivialSolves != 3 {
				t.Fatalf("TrivialSolves = %d, want 3", st.TrivialSolves)
			}
			if st.TotalIters != 0 {
				t.Fatalf("TotalIters = %d, want 0", st.TotalIters)
			}
		})
	}
}

// TestDualReportIterations pins the Iterations semantics: performed
// iterations on a normal solve, exactly the cap when termination never
// fires, at most the cap with a tight budget, and 0 on the trivial
// short-circuit (cold-probe and warm sessions alike).
func TestDualReportIterations(t *testing.T) {
	// paperishInstance is oscillation-bound (a knife-edge association user
	// keeps the movement above phi for the full 2000-iteration budget), so
	// the converging cases use a random instance that terminates normally.
	in := randomInstance(rng.New(7), 9, 3)

	t.Run("performed", func(t *testing.T) {
		rep := &DualReport{}
		if _, err := solve(NewDualSolver(WithTrace(rep)), in); err != nil {
			t.Fatal(err)
		}
		if rep.Iterations < 1 || !rep.Converged {
			t.Fatalf("Iterations = %d, Converged = %v; want >= 1 and converged", rep.Iterations, rep.Converged)
		}
		// The trace holds the initial prices plus one snapshot per
		// performed iteration.
		if got, want := len(rep.Trace), rep.Iterations+1; got != want {
			t.Fatalf("len(Trace) = %d, want %d", got, want)
		}
	})

	t.Run("exactly the cap when never terminating", func(t *testing.T) {
		rep := &DualReport{}
		if _, err := solve(NewDualSolver(WithTrace(rep), WithMaxIter(7), WithPhi(-1)), in); err != nil {
			t.Fatal(err)
		}
		if rep.Iterations != 7 || rep.Converged {
			t.Fatalf("Iterations = %d, Converged = %v; want 7, not converged", rep.Iterations, rep.Converged)
		}
	})

	t.Run("capped", func(t *testing.T) {
		rep := &DualReport{}
		if _, err := solve(NewDualSolver(WithTrace(rep), WithMaxIter(3)), in); err != nil {
			t.Fatal(err)
		}
		if rep.Iterations > 3 {
			t.Fatalf("Iterations = %d beyond the 3-iteration cap", rep.Iterations)
		}
	})

	t.Run("trivial is zero, cold and warm", func(t *testing.T) {
		tin := trivialInstance()
		rep := &DualReport{}
		d := NewDualSolver(WithTrace(rep))
		out := &Allocation{}
		for _, sess := range []*SolverSession{NewColdProbeSession(), NewSolverSession()} {
			for pass := 0; pass < 2; pass++ { // second NewSolverSession solve would be warm
				if err := d.SolveWarmInto(tin, out, sess); err != nil {
					t.Fatal(err)
				}
				if rep.Iterations != 0 || !rep.Converged {
					t.Fatalf("seeding=%v solve %d: Iterations = %d, Converged = %v; want 0, converged",
						sess.Seeding(), pass, rep.Iterations, rep.Converged)
				}
			}
		}
	})
}

// TestSessionShapeChangeColdStarts pins the re-cold-start trigger: carried
// state is keyed to the instance shape, so a differently-shaped instance
// must drop it and cold-start instead of warm-seeding garbage.
func TestSessionShapeChangeColdStarts(t *testing.T) {
	s := rng.New(11)
	inA := randomInstance(s, 9, 3)
	inB := randomInstance(s, 6, 2) // different user and FBS count
	inC := randomInstance(s, 9, 3) // same shape as A only if memberships match
	copy(inC.FBS, inA.FBS)

	d := NewDualSolver()
	sess := NewSolverSession()
	out := NewAllocation(9)
	outB := NewAllocation(6)
	for _, step := range []struct {
		in  *Instance
		out *Allocation
	}{{inA, out}, {inB, outB}, {inC, out}} {
		if err := d.SolveWarmInto(step.in, step.out, sess); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.ColdStarts != 3 || st.WarmSolves != 0 {
		t.Fatalf("stats = %+v; want 3 cold starts and 0 warm solves across shape changes", st)
	}

	// Same shape again: now the carried state applies.
	if err := d.SolveWarmInto(inC, out, sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.WarmSolves != 1 {
		t.Fatalf("stats = %+v; want 1 warm solve on the repeated shape", st)
	}
}

// TestWarmDivergenceGuardRestartsCold forces a warm seed that cannot
// converge within a tiny iteration budget and checks the guard: the solve
// re-runs cold in the same call, the restart is counted, and the carried
// state is invalidated so the next solve cold-starts rather than re-seeding
// from the failure.
func TestWarmDivergenceGuardRestartsCold(t *testing.T) {
	in := randomInstance(rng.New(7), 9, 3) // converges cold, so the session stores a seed
	sess := NewSolverSession()
	out := NewAllocation(in.K())
	if err := NewDualSolver().SolveWarmInto(in, out, sess); err != nil {
		t.Fatal(err)
	}
	if !sess.haveLambda {
		t.Fatal("first solve did not store multipliers")
	}
	// Sabotage the carried multipliers: a seed far above the equilibrium
	// descends at the capped rate and cannot converge within 6 iterations.
	for i := range sess.lambda {
		sess.lambda[i] *= 1e6
	}
	d := NewDualSolver(WithMaxIter(6))
	if err := d.SolveWarmInto(in, out, sess); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
	// Both the warm attempt and the cold rerun spent the full budget.
	if sess.LastIterations() != 12 {
		t.Fatalf("LastIterations = %d, want 12 (6 warm + 6 cold)", sess.LastIterations())
	}
	// The cold rerun did not converge either, so the next solve must not
	// warm-start from it.
	if sess.haveLambda {
		t.Fatal("non-converged multipliers were kept as a seed")
	}
	if err := d.SolveWarmInto(in, out, sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.WarmSolves != 1 {
		t.Fatalf("WarmSolves = %d after guard trip, want 1 (only the failed attempt)", st.WarmSolves)
	}
}

// TestSessionStats covers the bookkeeping: counters, mean, histogram
// quantiles, last-solve access, and Reset.
func TestSessionStats(t *testing.T) {
	in := randomInstance(rng.New(7), 9, 3)
	d := NewDualSolver()
	sess := NewSolverSession()
	sess.EnableStats()
	out := NewAllocation(in.K())
	for i := 0; i < 5; i++ {
		if err := d.SolveWarmInto(in, out, sess); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.Solves != 5 || st.ColdStarts != 1 || st.WarmSolves != 4 {
		t.Fatalf("stats = %+v; want 5 solves, 1 cold, 4 warm", st)
	}
	if st.TotalIters <= 0 || st.MaxIters <= 0 {
		t.Fatalf("stats = %+v; want positive iteration totals", st)
	}
	if sess.IterationMean() <= 0 {
		t.Fatalf("IterationMean = %v, want > 0", sess.IterationMean())
	}
	p50, p100 := sess.IterationQuantile(0.5), sess.IterationQuantile(1)
	if p50 < 0 || p100 < p50 || p100 != st.MaxIters {
		t.Fatalf("quantiles p50=%d p100=%d max=%d inconsistent", p50, p100, st.MaxIters)
	}
	if sess.LastIterations() <= 0 {
		t.Fatalf("LastIterations = %d, want > 0", sess.LastIterations())
	}
	hist := sess.HistCopy()
	var histSolves int64
	for _, c := range hist {
		histSolves += c
	}
	if histSolves != int64(st.Solves) {
		t.Fatalf("histogram records %d solves, stats %d", histSolves, st.Solves)
	}

	sess.Reset()
	if st := sess.Stats(); st != (SessionStats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", st)
	}
	if sess.IterationQuantile(0.5) != -1 {
		t.Fatal("IterationQuantile after Reset should be -1")
	}
	// After Reset the next solve is a cold start again.
	if err := d.SolveWarmInto(in, out, sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.ColdStarts != 1 || st.WarmSolves != 0 {
		t.Fatalf("stats after Reset+solve = %+v; want 1 cold start", st)
	}
}

// TestSessionStatsMerge pins the fold arithmetic used by the sharded
// runner's warm-report aggregation.
func TestSessionStatsMerge(t *testing.T) {
	a := SessionStats{Solves: 3, WarmSolves: 2, ColdStarts: 1, Restarts: 1, TrivialSolves: 1, TotalIters: 100, MaxIters: 60}
	b := SessionStats{Solves: 2, WarmSolves: 1, ColdStarts: 1, TotalIters: 50, MaxIters: 40}
	a.Merge(&b)
	want := SessionStats{Solves: 5, WarmSolves: 3, ColdStarts: 2, Restarts: 1, TrivialSolves: 1, TotalIters: 150, MaxIters: 60}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}

// TestColdProbeSessionNeverSeeds pins the cold-baseline instrumentation
// mode: the solves stay bit-identical to the session-less path while the
// statistics are still recorded.
func TestColdProbeSessionNeverSeeds(t *testing.T) {
	s := rng.New(5)
	in := randomInstance(s, 9, 3)
	tr := newMarkovTrace(s, 3)
	prep, crep := &DualReport{}, &DualReport{}
	probed, plain := NewDualSolver(WithTrace(prep)), NewDualSolver(WithTrace(crep))
	sess := NewColdProbeSession()
	out := NewAllocation(in.K())
	for slot := 0; slot < 10; slot++ {
		tr.step(in.G)
		if err := probed.SolveWarmInto(in, out, sess); err != nil {
			t.Fatal(err)
		}
		if err := plain.SolveInto(in, out); err != nil {
			t.Fatal(err)
		}
		// Same iterations as the legacy path except on trivially-feasible
		// slots, where the session short-circuits to zero prices.
		trivial := prep.Iterations == 0 && crep.Iterations != 0
		if !trivial && prep.Iterations != crep.Iterations {
			t.Fatalf("slot %d: cold-probe took %d iterations, legacy %d", slot, prep.Iterations, crep.Iterations)
		}
	}
	st := sess.Stats()
	if st.WarmSolves != 0 || st.ColdStarts != 10 {
		t.Fatalf("stats = %+v; want all cold", st)
	}
}

// TestIterationQuantileNearestRank pins the nearest-rank convention on odd
// and even counts: the q-quantile is the smallest iteration count with at
// least ceil(q·n) solves at or below it.
func TestIterationQuantileNearestRank(t *testing.T) {
	cases := []struct {
		iters []int
		q     float64
		want  int
	}{
		{[]int{5, 20, 40}, 0.5, 20},
		{[]int{5, 20, 40}, 0, 5},
		{[]int{5, 20, 40}, 0.34, 20},
		{[]int{5, 20, 40}, 1, 40},
		{[]int{3, 9}, 0.5, 3},
		{seq(15), 0.9, 14},
		{seq(15), 0.5, 8},
		{seq(100), 0.07, 7},
		{seq(100), 0.99, 99},
	}
	for _, c := range cases {
		sess := NewSolverSession()
		sess.EnableStats()
		for _, it := range c.iters {
			sess.note(it, true, false)
		}
		if got := sess.IterationQuantile(c.q); got != c.want {
			t.Errorf("%d solves, q=%v: quantile %d, want %d", len(c.iters), c.q, got, c.want)
		}
	}
}

// seq returns 1..n.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}
