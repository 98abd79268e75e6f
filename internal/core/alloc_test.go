package core

// Allocation-regression pins for the solver hot path. Every solver's
// SolveInto and the greedy channel allocation's AllocateInto must be
// allocation-free in steady state: all scratch comes from the pooled
// workspace, and all output goes into the caller's Allocation or
// GreedyResult, whose lists and vectors are reused. These tests fail if a
// future change reintroduces per-solve makes, maps, or sort closures, lets
// a result field escape to fresh memory, or stops returning a pooled
// workspace.
//
// The pins are the only gate on the hot-path contract. They skip under
// -race, so scripts/check.sh runs this package once without the race
// detector; TestSlotStepSteadyStateAllocs in internal/sim covers the
// per-slot roots these solver-level pins do not reach.

import (
	"testing"

	"femtocr/internal/rng"
)

// solveIntoBudget is the average allocations permitted per SolveInto: none.
// testing.AllocsPerRun truncates the average, so the occasional sync.Pool
// miss after a GC, which replaces the whole workspace at once, still
// averages below one over the 50 runs, while a single allocation per solve
// fails.
const solveIntoBudget = 0

func TestSolveIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	in := randomInstance(rng.New(3), 9, 3)
	cases := []struct {
		name   string
		solver Solver
	}{
		{"dual", NewDualSolver()},
		{"equilibrium", &EquilibriumSolver{}},
		{"bruteforce", &BruteForceSolver{}},
		{"heuristic1", Heuristic1{}},
		{"heuristic2", Heuristic2{}},
		{"maxthroughput", MaxThroughput{}},
		{"roundrobin", &RoundRobin{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			is := tc.solver
			out := NewAllocation(in.K())
			if err := is.SolveInto(in, out); err != nil { // warm the pool
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := is.SolveInto(in, out); err != nil {
					t.Fatal(err)
				}
			})
			if avg > solveIntoBudget {
				t.Errorf("SolveInto allocates %.2f/op in steady state, budget %d", avg, solveIntoBudget)
			}
		})
	}
}

func TestGreedyAllocateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// AllocateInto refills a warm result in place, as sim.Allocator does
	// every slot: its lists, vectors, step log and allocation keep their
	// backing arrays. The pre-rework figure was ~7400 allocs per call from
	// per-Q-evaluation instance rebuilds, and a fresh result per call
	// still cost ~48. As for SolveInto, the 50 runs average a rare pool
	// miss below one. The subtest keeps the name it had when an eager
	// loop ran beside the lazy one.
	const budget = 0
	p := interferingProblem(rng.New(7), 4)
	g := NewGreedyAllocator(&EquilibriumSolver{})
	t.Run("lazy", func(t *testing.T) {
		var res GreedyResult
		if err := g.AllocateInto(p, &res); err != nil { // warm the pool and the result
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := g.AllocateInto(p, &res); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("AllocateInto allocates %.2f/op in steady state, budget %d", avg, budget)
		}
	})
}
