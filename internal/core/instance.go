// Package core implements the paper's contribution: the per-slot resource
// allocation problems (12), (17) and (21), the optimum-achieving distributed
// dual-decomposition algorithm of Tables I and II, the greedy
// channel-allocation algorithm of Table III with its Theorem 2 lower bound
// and eq. (23) upper bound, and the two heuristic baselines of §V.
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInstance is returned when a problem instance fails validation.
var ErrBadInstance = errors.New("core: invalid problem instance")

// ErrNoSolution is returned when a solver cannot produce an allocation.
var ErrNoSolution = errors.New("core: no solution")

// Instance is one slot's resource-allocation problem over K users and N
// FBSs plus the MBS common channel.
//
// Per user j (0-based): W[j] is the current video quality W^{t-1}_j in dB;
// R0[j] = beta_j*B0/T and R1[j] = beta_j*B1/T are the PSNR-increment
// constants of problem (10); PS0[j] and PS1[j] are the packet-success
// probabilities \bar{P}^F_{0,j} (from the MBS) and \bar{P}^F_{i,j} (from the
// user's serving FBS); FBS[j] in 1..N is the serving femtocell.
//
// Per FBS i (1-based): G[i-1] is the expected number of available licensed
// channels G^t_i allocated to that FBS this slot.
type Instance struct {
	W   []float64
	R0  []float64
	R1  []float64
	PS0 []float64
	PS1 []float64
	FBS []int
	G   []float64
	// WMax optionally holds each user's encoding quality ceiling (the PSNR
	// of the MGS encoding at its saturation rate). When present, solvers
	// never allocate share beyond the ceiling — extra rate past it cannot
	// improve the reconstructed video. Nil means unbounded.
	WMax []float64
}

// K returns the number of users.
func (in *Instance) K() int { return len(in.W) }

// N returns the number of FBSs.
func (in *Instance) N() int { return len(in.G) }

// Validate checks structural and numeric sanity.
func (in *Instance) Validate() error {
	k := in.K()
	if k == 0 {
		return fmt.Errorf("%w: no users", ErrBadInstance)
	}
	if len(in.R0) != k || len(in.R1) != k || len(in.PS0) != k ||
		len(in.PS1) != k || len(in.FBS) != k {
		return fmt.Errorf("%w: per-user slice lengths disagree (K=%d)", ErrBadInstance, k)
	}
	if in.N() == 0 {
		return fmt.Errorf("%w: no FBSs", ErrBadInstance)
	}
	for j := 0; j < k; j++ {
		if in.W[j] <= 0 || math.IsNaN(in.W[j]) || math.IsInf(in.W[j], 0) {
			return fmt.Errorf("%w: W[%d]=%v must be positive finite", ErrBadInstance, j, in.W[j])
		}
		if !nonnegFinite(in.R0[j]) || !nonnegFinite(in.R1[j]) {
			return fmt.Errorf("%w: R0[%d]=%v R1[%d]=%v must be nonnegative finite", ErrBadInstance, j, in.R0[j], j, in.R1[j])
		}
		if !(in.PS0[j] >= 0 && in.PS0[j] <= 1) || !(in.PS1[j] >= 0 && in.PS1[j] <= 1) {
			return fmt.Errorf("%w: success probs PS0[%d]=%v PS1[%d]=%v", ErrBadInstance, j, in.PS0[j], j, in.PS1[j])
		}
		if in.FBS[j] < 1 || in.FBS[j] > in.N() {
			return fmt.Errorf("%w: FBS[%d]=%d out of 1..%d", ErrBadInstance, j, in.FBS[j], in.N())
		}
	}
	for i, g := range in.G {
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("%w: G[%d]=%v", ErrBadInstance, i, g)
		}
	}
	if in.WMax != nil {
		if len(in.WMax) != k {
			return fmt.Errorf("%w: WMax has %d entries for %d users", ErrBadInstance, len(in.WMax), k)
		}
		for j, wm := range in.WMax {
			if math.IsNaN(wm) || wm <= 0 {
				return fmt.Errorf("%w: WMax[%d]=%v", ErrBadInstance, j, wm)
			}
		}
	}
	return nil
}

// nonnegFinite reports whether v is a nonnegative finite number.
func nonnegFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// capFor returns the share ceiling (WMax-W)/r for user j on a resource with
// per-unit-rho increment r, or -1 when unbounded.
func (in *Instance) capFor(j int, r float64) float64 {
	if in.WMax == nil || r <= 0 {
		return -1
	}
	c := (in.WMax[j] - in.W[j]) / r
	if c < 0 {
		return 0
	}
	return c
}

// user0 builds user j's water-filling view of the common channel.
func (in *Instance) user0(j int) waterfillUser {
	return waterfillUser{ps: in.PS0[j], w: in.W[j], r: in.R0[j], cap: in.capFor(j, in.R0[j])}
}

// user1 builds user j's water-filling view of its FBS band.
func (in *Instance) user1(j int) waterfillUser {
	r := in.effR1(j)
	return waterfillUser{ps: in.PS1[j], w: in.W[j], r: r, cap: in.capFor(j, r)}
}

// effR1 returns the effective per-unit-rho PSNR increment of user j on its
// FBS band: G_i * R1_j.
func (in *Instance) effR1(j int) float64 {
	return in.G[in.FBS[j]-1] * in.R1[j]
}

// WithG returns a shallow copy of the instance with a different per-FBS
// expected-channel vector, used by the greedy allocator to evaluate Q(c)
// for candidate channel allocations.
func (in *Instance) WithG(g []float64) *Instance {
	cp := *in
	cp.G = g
	return &cp
}

// Allocation is a feasible solution to the per-slot problem: MBS[j] reports
// whether user j is served by the MBS this slot (p_j = 1) or by its FBS
// (q_j = 1); Rho0 and Rho1 are the time shares on the common channel and on
// the serving FBS's licensed band.
type Allocation struct {
	MBS  []bool
	Rho0 []float64
	Rho1 []float64
}

// NewAllocation returns an all-zero allocation for k users.
func NewAllocation(k int) *Allocation {
	return &Allocation{
		MBS:  make([]bool, k),
		Rho0: make([]float64, k),
		Rho1: make([]float64, k),
	}
}

// Feasible checks the allocation against the constraints of problem (17):
// nonnegative shares, per-resource sums at most 1 (within tol), and shares
// only on the chosen side (Theorem 1 structure).
func (a *Allocation) Feasible(in *Instance, tol float64) error {
	return feasibleCached(in, a, &solveWorkspace{}, tol)
}

// Objective evaluates the expected log-quality objective of problem (17)
// for this allocation. Each user contributes the exact conditional
// expectation of log(W^t) on its chosen branch:
// PS*log(W + rho*R_eff) + (1-PS)*log(W), i.e. the success branch where the
// quality grows plus the loss branch where it stays at W. (The paper's
// printed eq. (12) drops the loss term; keeping it makes the MBS-vs-FBS
// comparison depend on the expected log-gain rather than on the bare
// success-probability weights, which is what the stochastic program (11)
// specifies.)
func (a *Allocation) Objective(in *Instance) float64 {
	total := 0.0
	for j := 0; j < in.K(); j++ {
		logW := math.Log(in.W[j])
		if a.MBS[j] {
			gain := a.Rho0[j] * in.R0[j]
			total += in.PS0[j]*math.Log(in.W[j]+in.clampGain(j, gain)) + (1-in.PS0[j])*logW
		} else {
			gain := a.Rho1[j] * in.effR1(j)
			total += in.PS1[j]*math.Log(in.W[j]+in.clampGain(j, gain)) + (1-in.PS1[j])*logW
		}
	}
	return total
}

// ObjectiveLogW is Objective with each user's log(W_j) supplied by the
// caller as logW[j] = math.Log(in.W[j]): a caller that evaluates many
// allocations of one instance takes the logs once. It is bit-identical to
// Objective: a zero gain reuses the cached log(W) exactly as math.Log(W+0)
// would, and a nonzero gain performs the same math.Log call on the same
// argument.
func (a *Allocation) ObjectiveLogW(in *Instance, logW []float64) float64 {
	total := 0.0
	for j := 0; j < in.K(); j++ {
		total += objectiveTerm(in, a, logW[j], j)
	}
	return total
}

// objectiveTerm is user j's term of ObjectiveLogW, given lw = log(W_j).
func objectiveTerm(in *Instance, a *Allocation, lw float64, j int) float64 {
	var ps, gain float64
	if a.MBS[j] {
		ps = in.PS0[j]
		gain = in.clampGain(j, a.Rho0[j]*in.R0[j])
	} else {
		ps = in.PS1[j]
		gain = in.clampGain(j, a.Rho1[j]*in.effR1(j))
	}
	lwg := lw
	if gain != 0 {
		lwg = math.Log(in.W[j] + gain)
	}
	return ps*lwg + (1-ps)*lw
}

// clampGain caps a quality increment at the user's encoding ceiling.
func (in *Instance) clampGain(j int, gain float64) float64 {
	if in.WMax == nil {
		return gain
	}
	if room := in.WMax[j] - in.W[j]; gain > room {
		if room < 0 {
			return 0
		}
		return room
	}
	return gain
}

// ExpectedGain returns the expected PSNR increment of user j under this
// allocation: success probability times the deterministic quality increase,
// the per-user term the simulator credits in expectation-tracking mode.
func (a *Allocation) ExpectedGain(in *Instance, j int) float64 {
	if a.MBS[j] {
		return in.PS0[j] * a.Rho0[j] * in.R0[j]
	}
	return in.PS1[j] * a.Rho1[j] * in.effR1(j)
}

// Solver computes an allocation for one slot's problem.
type Solver interface {
	// SolveInto writes a feasible allocation into the caller-owned out,
	// which is resized and zeroed first; any previous contents are
	// discarded. Per-slot callers reuse one Allocation across solves.
	// Implementations must not retain or mutate the instance.
	SolveInto(in *Instance, out *Allocation) error
}
