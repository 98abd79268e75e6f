package core

import (
	"math"
	"sort"
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
// same instance. The carried price may differ within the bisection's
// tolerance; the discrete repair must absorb that.
func TestWarmMatchesColdAllocations(t *testing.T) {
	t.Run("equilibrium", func(t *testing.T) {
		solver := &EquilibriumSolver{}
		for seed := uint64(1); seed <= 6; seed++ {
			s := rng.New(seed)
			in := randomInstance(s, 9, 3)
			tr := newMarkovTrace(s, 3)
			sess := NewSolverSession()
			warm := NewAllocation(in.K())
			cold := NewAllocation(in.K())
			for slot := 0; slot < 40; slot++ {
				tr.step(in.G)
				obj, err := solver.SolveWarmInto(in, warm, sess)
				if err != nil {
					t.Fatal(err)
				}
				if err := solver.SolveInto(in, cold); err != nil {
					t.Fatal(err)
				}
				if !sameAllocation(warm, cold) {
					t.Fatalf("seed %d slot %d: warm and cold allocations differ", seed, slot)
				}
				if got := warm.Objective(in); math.Float64bits(obj) != math.Float64bits(got) {
					t.Fatalf("seed %d slot %d: SolveWarmInto returned objective %v, Objective reads %v", seed, slot, obj, got)
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

// TestWarmMatchesColdTrivialSlots covers the trivial-feasibility
// short-circuit: a slot whose demand fits every budget at the price floor
// is solved at zero prices with zero outer probes, keeps the carried price,
// and must equal the cold solve.
func TestWarmMatchesColdTrivialSlots(t *testing.T) {
	in := trivialInstance()
	t.Run("equilibrium", func(t *testing.T) {
		solver := &EquilibriumSolver{}
		sess := NewSolverSession()
		warm := NewAllocation(in.K())
		cold := NewAllocation(in.K())
		for slot := 0; slot < 3; slot++ {
			if _, err := solver.SolveWarmInto(in, warm, sess); err != nil {
				t.Fatal(err)
			}
			if err := solver.SolveInto(in, cold); err != nil {
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

// TestWarmSessionProbeBudget pins what the carried price buys: over
// Markov-correlated traces, the median outer probe count of a warm session
// must be at most 3/5 of the cold one's (27 vs 47: a contended warm solve
// probes neither the price floor nor its bracket's lower end). The cold
// baseline solves every slot through a fresh session, whose first solve
// is cold by construction.
func TestWarmSessionProbeBudget(t *testing.T) {
	solver := &EquilibriumSolver{}
	var warmProbes, coldProbes []int64
	for seed := uint64(1); seed <= 6; seed++ {
		s := rng.New(seed)
		in := randomInstance(s, 9, 3)
		tr := newMarkovTrace(s, 3)
		sess := NewSolverSession()
		out := NewAllocation(in.K())
		for slot := 0; slot < 40; slot++ {
			tr.step(in.G)
			before := sess.Stats().TotalIters
			if _, err := solver.SolveWarmInto(in, out, sess); err != nil {
				t.Fatal(err)
			}
			fresh := NewSolverSession()
			if _, err := solver.SolveWarmInto(in, out, fresh); err != nil {
				t.Fatal(err)
			}
			if st := fresh.Stats(); st.WarmSolves != 0 {
				t.Fatalf("seed %d slot %d: a fresh session's solve was warm", seed, slot)
			} else if st.TrivialSolves == 0 {
				warmProbes = append(warmProbes, sess.Stats().TotalIters-before)
				coldProbes = append(coldProbes, st.TotalIters)
			}
		}
	}
	if len(coldProbes) == 0 {
		t.Fatal("every slot was trivial; the test is vacuous")
	}
	warm, cold := medianProbes(warmProbes), medianProbes(coldProbes)
	t.Logf("median outer probes over %d contended slots: warm %d, cold %d", len(coldProbes), warm, cold)
	if 5*warm > 3*cold {
		t.Errorf("warm median %d outer probes is above 3/5 of the cold median %d", warm, cold)
	}
}

// medianProbes returns the nearest-rank median of the probe counts.
func medianProbes(p []int64) int64 {
	sorted := append([]int64(nil), p...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[(len(sorted)-1)/2]
}

// TestDualReportIterations pins the Iterations semantics: performed
// iterations on a normal solve, exactly the cap when termination never
// fires, and at most the cap with a tight budget.
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

	e := &EquilibriumSolver{}
	sess := NewSolverSession()
	out := NewAllocation(9)
	outB := NewAllocation(6)
	for _, step := range []struct {
		in  *Instance
		out *Allocation
	}{{inA, out}, {inB, outB}, {inC, out}} {
		if _, err := e.SolveWarmInto(step.in, step.out, sess); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.ColdStarts != 3 || st.WarmSolves != 0 || st.TrivialSolves != 0 {
		t.Fatalf("stats = %+v; want 3 contended cold starts and 0 warm solves across shape changes", st)
	}

	// Same shape again: now the carried state applies.
	if _, err := e.SolveWarmInto(inC, out, sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.WarmSolves != 1 {
		t.Fatalf("stats = %+v; want 1 warm solve on the repeated shape", st)
	}
}

// TestSessionStats covers the bookkeeping: the counters sim reports as
// Result.Solves and Result.RelaxSolves.
func TestSessionStats(t *testing.T) {
	in := randomInstance(rng.New(7), 9, 3)
	e := &EquilibriumSolver{}
	sess := NewSolverSession()
	out := NewAllocation(in.K())
	for i := 0; i < 5; i++ {
		if _, err := e.SolveWarmInto(in, out, sess); err != nil {
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
	if int64(st.MaxIters) > st.TotalIters {
		t.Fatalf("stats = %+v; one solve's iterations exceed the total", st)
	}
}

// TestSessionStatsMerge pins the fold arithmetic the sharded runner uses to
// sum its shards' solve counters.
func TestSessionStatsMerge(t *testing.T) {
	a := SessionStats{Solves: 3, WarmSolves: 2, ColdStarts: 1, Restarts: 1, TrivialSolves: 1, TotalIters: 100, MaxIters: 60}
	b := SessionStats{Solves: 2, WarmSolves: 1, ColdStarts: 1, TotalIters: 50, MaxIters: 40}
	a.Merge(&b)
	want := SessionStats{Solves: 5, WarmSolves: 3, ColdStarts: 2, Restarts: 1, TrivialSolves: 1, TotalIters: 150, MaxIters: 60}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}
