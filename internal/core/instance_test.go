package core

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/rng"
)

// randomInstance generates a valid random instance with k users spread over
// n FBSs, for property tests.
// solve runs s into a fresh allocation.
func solve(s Solver, in *Instance) (*Allocation, error) {
	out := &Allocation{}
	if err := s.SolveInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

func randomInstance(s *rng.Stream, k, n int) *Instance {
	in := &Instance{
		W:   make([]float64, k),
		R0:  make([]float64, k),
		R1:  make([]float64, k),
		PS0: make([]float64, k),
		PS1: make([]float64, k),
		FBS: make([]int, k),
		G:   make([]float64, n),
	}
	for j := 0; j < k; j++ {
		in.W[j] = 25 + 15*s.Float64()
		in.R0[j] = 0.05 + 0.45*s.Float64()
		in.R1[j] = 0.05 + 0.45*s.Float64()
		in.PS0[j] = 0.3 + 0.7*s.Float64()
		in.PS1[j] = 0.3 + 0.7*s.Float64()
		in.FBS[j] = 1 + s.IntN(n)
	}
	for i := 0; i < n; i++ {
		in.G[i] = 5 * s.Float64()
	}
	return in
}

// paperishInstance builds a deterministic 3-user single-FBS instance with
// paper-like magnitudes.
func paperishInstance() *Instance {
	return &Instance{
		W:   []float64{28.2, 25.9, 27.1},
		R0:  []float64{0.288, 0.312, 0.243}, // beta * B0 / T
		R1:  []float64{0.288, 0.312, 0.243},
		PS0: []float64{0.70, 0.65, 0.72},
		PS1: []float64{0.92, 0.90, 0.95},
		FBS: []int{1, 1, 1},
		G:   []float64{3.4},
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := paperishInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	mutations := []struct {
		name string
		mod  func(*Instance)
	}{
		{"no users", func(in *Instance) { in.W = nil }},
		{"length mismatch", func(in *Instance) { in.R0 = in.R0[:1] }},
		{"no fbs", func(in *Instance) { in.G = nil }},
		{"zero W", func(in *Instance) { in.W[0] = 0 }},
		{"NaN W", func(in *Instance) { in.W[1] = math.NaN() }},
		{"negative R0", func(in *Instance) { in.R0[0] = -1 }},
		{"PS0 above 1", func(in *Instance) { in.PS0[0] = 1.2 }},
		{"PS1 below 0", func(in *Instance) { in.PS1[2] = -0.1 }},
		{"NaN PS0", func(in *Instance) { in.PS0[1] = math.NaN() }},
		{"NaN PS1", func(in *Instance) { in.PS1[1] = math.NaN() }},
		{"Inf R0", func(in *Instance) { in.R0[1] = math.Inf(1) }},
		{"Inf R1", func(in *Instance) { in.R1[1] = math.Inf(1) }},
		{"FBS zero", func(in *Instance) { in.FBS[0] = 0 }},
		{"FBS out of range", func(in *Instance) { in.FBS[1] = 2 }},
		{"negative G", func(in *Instance) { in.G[0] = -0.5 }},
		{"NaN G", func(in *Instance) { in.G[0] = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			in := paperishInstance()
			m.mod(in)
			if err := in.Validate(); !errors.Is(err, ErrBadInstance) {
				t.Fatalf("err = %v, want ErrBadInstance", err)
			}
		})
	}
}

func TestWithGDoesNotMutate(t *testing.T) {
	in := paperishInstance()
	cp := in.WithG([]float64{7})
	if in.G[0] == 7 {
		t.Fatal("WithG mutated the original")
	}
	if cp.G[0] != 7 || cp.K() != in.K() {
		t.Fatal("WithG copy wrong")
	}
}

func TestAllocationFeasible(t *testing.T) {
	in := paperishInstance()
	a := NewAllocation(3)
	a.MBS[0] = true
	a.Rho0[0] = 0.5
	a.Rho1[1] = 0.6
	a.Rho1[2] = 0.4
	if err := a.Feasible(in, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationInfeasibleCases(t *testing.T) {
	in := paperishInstance()
	cases := []struct {
		name string
		mod  func(*Allocation)
	}{
		{"negative share", func(a *Allocation) { a.Rho0[0] = -0.1 }},
		{"over budget common", func(a *Allocation) { a.MBS[0], a.MBS[1] = true, true; a.Rho0[0], a.Rho0[1] = 0.7, 0.7 }},
		{"over budget fbs", func(a *Allocation) { a.Rho1[0], a.Rho1[1] = 0.7, 0.7 }},
		{"share on wrong side", func(a *Allocation) { a.MBS[0] = true; a.Rho1[0] = 0.2 }},
		{"mbs share while on fbs", func(a *Allocation) { a.Rho0[0] = 0.2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAllocation(3)
			c.mod(a)
			if err := a.Feasible(in, 1e-9); !errors.Is(err, ErrBadInstance) {
				t.Fatalf("err = %v, want ErrBadInstance", err)
			}
		})
	}
	short := NewAllocation(2)
	if err := short.Feasible(in, 1e-9); !errors.Is(err, ErrBadInstance) {
		t.Fatal("size mismatch accepted")
	}
}

func TestObjectiveComputation(t *testing.T) {
	in := paperishInstance()
	a := NewAllocation(3)
	a.MBS[0] = true
	a.Rho0[0] = 1
	a.Rho1[1] = 0.5
	// user 2 idle on FBS side.
	want := in.PS0[0]*math.Log(in.W[0]+1*in.R0[0]) + (1-in.PS0[0])*math.Log(in.W[0]) +
		in.PS1[1]*math.Log(in.W[1]+0.5*in.G[0]*in.R1[1]) + (1-in.PS1[1])*math.Log(in.W[1]) +
		math.Log(in.W[2]) // idle user: success and loss branches coincide
	if got := a.Objective(in); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Objective = %v, want %v", got, want)
	}
}

func TestExpectedGain(t *testing.T) {
	in := paperishInstance()
	a := NewAllocation(3)
	a.MBS[0] = true
	a.Rho0[0] = 0.5
	a.Rho1[1] = 0.25
	if got, want := a.ExpectedGain(in, 0), in.PS0[0]*0.5*in.R0[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("gain(0) = %v, want %v", got, want)
	}
	if got, want := a.ExpectedGain(in, 1), in.PS1[1]*0.25*in.G[0]*in.R1[1]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("gain(1) = %v, want %v", got, want)
	}
	if got := a.ExpectedGain(in, 2); got != 0 {
		t.Fatalf("gain(2) = %v, want 0", got)
	}
}
