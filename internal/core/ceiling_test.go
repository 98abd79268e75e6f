package core

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/rng"
)

// cappedInstance returns a paper-like instance with encoding ceilings.
func cappedInstance() *Instance {
	in := paperishInstance()
	in.WMax = []float64{in.W[0] + 1.2, in.W[1] + 0.4, in.W[2] + 2.0}
	return in
}

func TestWMaxValidation(t *testing.T) {
	in := cappedInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	in.WMax = in.WMax[:2]
	if err := in.Validate(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("short WMax accepted")
	}
	in = cappedInstance()
	in.WMax[0] = math.NaN()
	if err := in.Validate(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("NaN WMax accepted")
	}
	in = cappedInstance()
	in.WMax[1] = 0
	if err := in.Validate(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("zero WMax accepted")
	}
}

// TestCapsRespectedByAllSolvers: no solver allocates a share whose full
// increment would push a user past its encoding ceiling (within the share
// that actually matters: rho * R_eff <= WMax - W + tol).
func TestCapsRespectedByAllSolvers(t *testing.T) {
	root := rng.New(21)
	for trial := 0; trial < 20; trial++ {
		s := root.SplitIndex("t", trial)
		in := randomInstance(s, 1+s.IntN(6), 1+s.IntN(2))
		in.WMax = make([]float64, in.K())
		for j := range in.WMax {
			in.WMax[j] = in.W[j] + 3*s.Float64()
		}
		for _, solver := range []Solver{NewDualSolver(), &EquilibriumSolver{}, &BruteForceSolver{}} {
			alloc, err := solve(solver, in)
			if err != nil {
				t.Fatalf("trial %d %T: %v", trial, solver, err)
			}
			for j := 0; j < in.K(); j++ {
				room := in.WMax[j] - in.W[j]
				var gain float64
				if alloc.MBS[j] {
					gain = alloc.Rho0[j] * in.R0[j]
				} else {
					gain = alloc.Rho1[j] * in.effR1(j)
				}
				if gain > room+1e-6 {
					t.Fatalf("trial %d %T: user %d gain %v exceeds headroom %v",
						trial, solver, j, gain, room)
				}
			}
		}
	}
}

// TestCappedEquilibriumMatchesBrute: the fast solver still matches the
// exhaustive reference when ceilings bind.
func TestCappedEquilibriumMatchesBrute(t *testing.T) {
	root := rng.New(22)
	brute := &BruteForceSolver{}
	eq := &EquilibriumSolver{}
	for trial := 0; trial < 40; trial++ {
		s := root.SplitIndex("t", trial)
		in := randomInstance(s, 1+s.IntN(6), 1+s.IntN(2))
		in.WMax = make([]float64, in.K())
		for j := range in.WMax {
			in.WMax[j] = in.W[j] + 2*s.Float64() // often binding
		}
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
			t.Fatalf("trial %d: equilibrium %v beats brute %v", trial, ev, bv)
		}
		if bv-ev > 5e-3 {
			t.Fatalf("trial %d: capped gap %v too large", trial, bv-ev)
		}
	}
}

// TestSaturatedUserYieldsToOthers: a user with no quality headroom must
// receive nothing, freeing the budget for the rest.
func TestSaturatedUserYieldsToOthers(t *testing.T) {
	in := cappedInstance()
	in.WMax[0] = in.W[0] // user 0 is at its ceiling
	alloc, err := solve(&BruteForceSolver{}, in)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Rho0[0] > 1e-9 || alloc.Rho1[0] > 1e-9 {
		t.Fatalf("saturated user still allocated: %+v", alloc)
	}
	// The others split the FBS band fully.
	if sum := alloc.Rho1[1] + alloc.Rho1[2] + alloc.Rho0[1] + alloc.Rho0[2]; sum < 0.99 {
		t.Fatalf("remaining users underuse resources: %v", sum)
	}
}

// TestCapImprovesRealizedObjective: with binding ceilings, the ceiling-aware
// optimum must beat a cap-oblivious allocation evaluated under the capped
// objective.
func TestCapImprovesRealizedObjective(t *testing.T) {
	in := cappedInstance()
	withCaps, err := solve(&BruteForceSolver{}, in)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := &Instance{
		W: in.W, R0: in.R0, R1: in.R1, PS0: in.PS0, PS1: in.PS1,
		FBS: in.FBS, G: in.G,
	}
	oblivious, err := solve(&BruteForceSolver{}, uncapped)
	if err != nil {
		t.Fatal(err)
	}
	vAware := withCaps.Objective(in)
	vOblivious := oblivious.Objective(in) // evaluated under the true caps
	if vAware < vOblivious-1e-9 {
		t.Fatalf("cap-aware %v worse than cap-oblivious %v", vAware, vOblivious)
	}
}

func TestRhoAtHonorsCap(t *testing.T) {
	u := waterfillUser{ps: 0.8, w: 30, r: 0.3, cap: 0.25}
	if got := u.rhoAtWR(1e-6, wrOf(u)); got != 0.25 {
		t.Fatalf("rhoAtWR tiny price = %v, want cap 0.25", got)
	}
	atCeiling := waterfillUser{ps: 0.8, w: 30, r: 0.3, cap: 0}
	if got := atCeiling.rhoAtWR(1e-6, wrOf(atCeiling)); got != 0 {
		t.Fatalf("at-ceiling user demanded %v", got)
	}
}

// TestWaterfillWithCapsSlackBudget: when every user saturates below the
// budget, the leftover stays unallocated rather than overflowing caps.
func TestWaterfillWithCapsSlackBudget(t *testing.T) {
	users := []waterfillUser{
		{ps: 0.9, w: 30, r: 0.3, cap: 0.2},
		{ps: 0.7, w: 28, r: 0.25, cap: 0.3},
	}
	rho, _ := columnsWaterfill(users, 1)
	if rho[0] > 0.2+1e-9 || rho[1] > 0.3+1e-9 {
		t.Fatalf("caps overflowed: %v", rho)
	}
	if rho[0] < 0.2-1e-6 || rho[1] < 0.3-1e-6 {
		t.Fatalf("caps not reached despite slack budget: %v", rho)
	}
}
