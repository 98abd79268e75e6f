package core_test

import (
	"fmt"

	"femtocr/internal/core"
	"femtocr/internal/igraph"
)

// exampleInstance is a paper-like single-FBS slot problem: three users,
// base-layer qualities around 27-29 dB, a reliable femto link and a lossier
// macro link, and G = 3.4 expected available channels.
func exampleInstance() *core.Instance {
	return &core.Instance{
		W:   []float64{28.6, 26.8, 27.9},
		R0:  []float64{0.47, 0.52, 0.41}, // beta * B0 / T
		R1:  []float64{0.47, 0.52, 0.41},
		PS0: []float64{0.60, 0.55, 0.65},
		PS1: []float64{0.92, 0.90, 0.95},
		FBS: []int{1, 1, 1},
		G:   []float64{3.4},
	}
}

// The distributed dual-decomposition algorithm of Table I: each user solves
// its closed-form subproblem at the broadcast prices, the MBS updates the
// prices by projected subgradient, and the final association is binary
// (Theorem 1).
func ExampleDualSolver() {
	alloc := &core.Allocation{}
	if err := core.NewDualSolver().SolveInto(exampleInstance(), alloc); err != nil {
		panic(err)
	}
	onMBS := 0
	split := false
	for j := range alloc.MBS {
		if alloc.MBS[j] {
			onMBS++
		}
		if alloc.Rho0[j] > 0 && alloc.Rho1[j] > 0 {
			split = true
		}
	}
	fmt.Printf("users on MBS: %d, on FBS: %d\n", onMBS, 3-onMBS)
	fmt.Printf("any user split across base stations: %v (Theorem 1)\n", split)
	fmt.Printf("feasible: %v\n", alloc.Feasible(exampleInstance(), 1e-9) == nil)
	// Output:
	// users on MBS: 1, on FBS: 2
	// any user split across base stations: false (Theorem 1)
	// feasible: true
}

// The greedy channel allocation of Table III on the paper's Fig. 5 path
// graph: adjacent femtocells never share a channel, non-adjacent ones
// reuse it, and the result carries both performance bounds.
func ExampleGreedyAllocator() {
	in := exampleInstance()
	// Nine users across three femtocells on a path.
	in.W = []float64{28.6, 26.8, 27.9, 28.6, 26.8, 27.9, 28.6, 26.8, 27.9}
	in.R0 = repeat(0.47, 9)
	in.R1 = repeat(0.47, 9)
	in.PS0 = repeat(0.6, 9)
	in.PS1 = repeat(0.9, 9)
	in.FBS = []int{1, 1, 1, 2, 2, 2, 3, 3, 3}
	in.G = make([]float64, 3)

	greedy := core.NewGreedyAllocator(nil)
	res, err := greedy.Allocate(&core.ChannelProblem{
		Base:       in,
		Graph:      igraph.Path(3),
		Channels:   []int{1, 2},
		Posteriors: []float64{0.9, 0.8},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Theorem 2 floor: 1/%d of the optimum\n", int(1/res.LowerBoundFactor))
	fmt.Printf("value within bound: %v\n", res.Value <= res.UpperBound)
	// FBS 1 and FBS 3 may reuse the same channels; FBS 2 conflicts with both.
	reuse := len(res.Assigned[0]) + len(res.Assigned[2])
	fmt.Printf("channels at the path ends: %d (spatial reuse)\n", reuse)
	// Output:
	// Theorem 2 floor: 1/3 of the optimum
	// value within bound: true
	// channels at the path ends: 4 (spatial reuse)
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
