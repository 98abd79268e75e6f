package core

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"femtocr/internal/rng"
)

// TestSolversBitIdenticalUnderPoolChurn: a solve is a pure function of its
// instance, however many concurrent solves churn the shared workspace pool.
// Several goroutines re-solve a fixed set of instances with every pooled
// solver and the greedy channel allocator at once, and each result must
// equal the quiescent one bit for bit. Under -race, a workspace used after
// it went back to the pool is a DATA RACE here: the solvers that do not
// run on every simulated slot (the dual solver traces only Fig. 4(a)) get
// little churn from the engine-level determinism tests.
func TestSolversBitIdenticalUnderPoolChurn(t *testing.T) {
	s := rng.New(3)
	ins := make([]*Instance, 6)
	for i := range ins {
		n := 1 + i%3
		ins[i] = randomInstance(s, 2*n+i%3, n)
	}
	solvers := []Solver{NewDualSolver(), &EquilibriumSolver{}, &BruteForceSolver{}, Heuristic1{}, Heuristic2{}, MaxThroughput{}}
	want := make([][]*Allocation, len(solvers))
	for si, sv := range solvers {
		for _, in := range ins {
			a, err := solve(sv, in)
			if err != nil {
				t.Fatal(err)
			}
			want[si] = append(want[si], a)
		}
	}
	greedy := NewGreedyAllocator(&EquilibriumSolver{}, WithLazyEvaluation())
	problem := interferingProblem(s, 4)
	wantGreedy, err := greedy.Allocate(problem)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, reps = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &Allocation{}
			for rep := 0; rep < reps; rep++ {
				for si, sv := range solvers {
					for ii, in := range ins {
						if err := sv.SolveInto(in, out); err != nil {
							t.Error(err)
							return
						}
						if !sameAllocation(out, want[si][ii]) {
							t.Errorf("solver %T instance %d: allocation differs from the quiescent solve", sv, ii)
							return
						}
					}
				}
				res, err := greedy.Allocate(problem)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(res.Value) != math.Float64bits(wantGreedy.Value) || !sameAllocation(res.Alloc, wantGreedy.Alloc) {
					t.Error("greedy allocation differs from the quiescent one")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRaceRewriteCoversEveryBuffer: the race build's release check
// (pool_race.go) rewrites each scratch buffer by name, so a buffer added
// to solveWorkspace must be named there too. qInstance is left out: its
// slices alias the caller's instance.
func TestRaceRewriteCoversEveryBuffer(t *testing.T) {
	src, err := os.ReadFile("pool_race.go")
	if err != nil {
		t.Fatal(err)
	}
	named := func(path string) bool {
		return regexp.MustCompile(`\bws\.` + regexp.QuoteMeta(path) + `\b`).Match(src)
	}
	typ := reflect.TypeOf(solveWorkspace{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Type.Kind() == reflect.Slice && !named(f.Name):
			t.Errorf("solveWorkspace.%s is not rewritten on release", f.Name)
		case f.Type == reflect.TypeOf(Allocation{}):
			for j := 0; j < f.Type.NumField(); j++ {
				if sub := f.Name + "." + f.Type.Field(j).Name; !named(sub) {
					t.Errorf("solveWorkspace.%s is not rewritten on release", sub)
				}
			}
		}
	}
}
