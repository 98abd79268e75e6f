package experiments

import (
	"errors"
	"math"
	"testing"
)

// TestTopologyStudyValidatesTheorem2: on every family the greedy keeps at
// least Theorem 2's 1/(1+Dmax) of the optimum, of the objective and of its
// gain above Q(∅) alike, no ratio exceeds 100% beyond solver tolerance,
// and the isolated family, which Table II solves optimally, reads 100%.
func TestTopologyStudyValidatesTheorem2(t *testing.T) {
	fig, err := Topology(Params{Runs: 2, GOPs: 1, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	means := func(name string) []float64 {
		t.Helper()
		c := fig.Curve(name)
		if c == nil || c.Len() != 5 {
			t.Fatalf("curve %q missing or not 5 families", name)
		}
		ys := make([]float64, c.Len())
		for i := range ys {
			_, s := c.At(i)
			ys[i] = s.Mean
		}
		return ys
	}
	// Families in x order: isolated, path, cycle-4, star-4, complete-4.
	floor := means("floor 1/(1+Dmax)")
	for i, dmax := range []int{0, 2, 2, 3, 3} {
		if want := 100 / (1 + float64(dmax)); math.Abs(floor[i]-want) > 1e-9 {
			t.Fatalf("family %d floor %v, want Dmax %d's %v", i+1, floor[i], dmax, want)
		}
	}
	// Solver tolerances in percent: 1e-9 of the ratio for the floor and the
	// 100% cap, 1e-12 for a mean against its own worst instance.
	const tol, foldTol = 1e-7, 1e-10
	for _, ratio := range []string{"greedy/opt", "gain greedy/opt"} {
		worst, mean := means(ratio+" worst"), means(ratio+" mean")
		for i := range worst {
			if worst[i] < floor[i]-tol {
				t.Errorf("family %d: %s worst %v below Theorem 2's floor %v", i+1, ratio, worst[i], floor[i])
			}
			if mean[i] < worst[i]-foldTol {
				t.Errorf("family %d: %s mean %v below its worst %v", i+1, ratio, mean[i], worst[i])
			}
		}
		if worst[0] < 100-1e-4 {
			t.Errorf("isolated family: %s worst %v, want 100 (Table II is optimal)", ratio, worst[0])
		}
	}
	for _, c := range fig.Curves[1:] {
		for i := 0; i < c.Len(); i++ {
			if _, s := c.At(i); !(s.Mean <= 100+tol) {
				t.Errorf("family %d: %s reads %v%%, above 100%%", i+1, c.Name, s.Mean)
			}
		}
	}
}

// TestTopologyStudyValidation: the topology study draws 2·Runs instances
// per family, so zero runs is rejected, but it simulates no GOPs, so zero
// GOPs is not.
func TestTopologyStudyValidation(t *testing.T) {
	if _, err := Topology(Params{Runs: 0, GOPs: 3}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("runs=0 err = %v", err)
	}
	if _, err := Topology(Params{Runs: 1, GOPs: 0}); err != nil {
		t.Fatalf("GOPs=0 err = %v, want the study to ignore GOPs", err)
	}
}
