package core

// Ablation benchmarks for the design choices called out in DESIGN.md:
// solver choice (distributed subgradient vs price equilibrium vs brute
// force), the greedy channel allocation, and the dual step schedule
// (diminishing vs constant).

import (
	"testing"

	"femtocr/internal/rng"
)

func benchInstance(k, n int) *Instance {
	return randomInstance(rng.New(42), k, n)
}

func BenchmarkWaterfill(b *testing.B) {
	users := make([]waterfillUser, 9)
	s := rng.New(1)
	for i := range users {
		users[i] = waterfillUser{ps: 0.3 + 0.7*s.Float64(), w: 25 + 10*s.Float64(), r: 0.1 + 0.4*s.Float64(), cap: -1}
	}
	_, ps, wr, caps := columnsOf(users)
	rho := make([]float64, len(ps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waterfillColumns(rho, ps, wr, caps, 1)
	}
}

func BenchmarkDualSolver(b *testing.B) {
	in := benchInstance(9, 3)
	solver := NewDualSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(solver, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualSolverConstantStep(b *testing.B) {
	in := benchInstance(9, 3)
	solver := NewDualSolver(WithConstantStep(), WithStepScale(0.01))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(solver, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquilibriumSolver(b *testing.B) {
	in := benchInstance(9, 3)
	solver := &EquilibriumSolver{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(solver, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForceSolver(b *testing.B) {
	in := benchInstance(9, 3)
	solver := &BruteForceSolver{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(solver, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristic1(b *testing.B) {
	in := benchInstance(9, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(Heuristic1{}, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristic2(b *testing.B) {
	in := benchInstance(9, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(Heuristic2{}, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyLazy(b *testing.B) {
	p := interferingProblemBench(5)
	g := NewGreedyAllocator(&EquilibriumSolver{})
	// One result reused across calls, as sim.Allocator does, its buffers
	// grown before the timer starts.
	var res GreedyResult
	if err := g.AllocateInto(p, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.AllocateInto(p, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Evaluations), "Q_evals")
}

// interferingProblemBench mirrors the test helper at benchmark scale.
func interferingProblemBench(numChannels int) *ChannelProblem {
	return interferingProblem(rng.New(7), numChannels)
}
