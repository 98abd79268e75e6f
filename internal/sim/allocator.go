package sim

import (
	"fmt"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
)

// Allocator bundles the allocation half of one slot — which FBS may use
// which accessed channel (the greedy of Table III for Proposed on an
// interfering network, else the static frequency plan) and the per-slot
// solve of problem (10) — shared by the rate-based engine here and the
// packet-level engine in internal/packetsim. It is the counterpart of
// Frontend.
//
// Every Proposed solve is warm-started: the slot solves and the TrackBound
// relaxation solves carry their prices across slots in separate
// core.SolverSessions — they are different problem families, and seeding
// one from the other would thrash both trackers. Like Frontend, an
// Allocator is single-goroutine; RunSharded gets per-shard sessions for
// free because every shard builds its own engine.
type Allocator struct {
	net        *netmodel.Network
	solver     core.Solver  // a *core.EquilibriumSolver when the scheme is Proposed
	greedy     *greedyStage // nil unless Table III allocates the channels
	trackBound bool

	// Static channel split for schemes without per-slot channel
	// coordination (greedy-coloring frequency plan).
	interfering bool
	colorOf     []int
	numColors   int

	// Reusable per-slot state: the instance snapshot (its G is the zero
	// vector the greedy reads N from), the shallow view handed out by withG,
	// the channel vectors, the static assignment lists, and the allocations
	// written by the solves. All are owned by the allocator and overwritten
	// every slot.
	inst       core.Instance
	view       core.Instance
	gVec       []float64
	relaxG     []float64
	assigned   [][]int
	alloc      *core.Allocation
	relaxAlloc *core.Allocation
	out        SlotAllocation

	session      *core.SolverSession
	relaxSession *core.SolverSession // only when the relaxation bound is tracked
}

// greedyStage is Table III's per-slot state, which only Proposed on an
// interfering network needs: the allocator, the slot's channel problem and
// the result the allocator refills every slot. It lives behind a pointer so
// that the Allocator of any other run stays in its size class.
type greedyStage struct {
	alloc *core.GreedyAllocator
	prob  core.ChannelProblem
	res   core.GreedyResult
}

// SlotAllocation is the allocation half's output for one slot. It and every
// buffer it holds are owned by the Allocator and valid only until the next
// Step.
type SlotAllocation struct {
	// Instance is the slot's problem (10) at the allocated channels;
	// Instance.G is the expected-available-channel vector G.
	Instance *core.Instance
	// Alloc is the user allocation solved on Instance.
	Alloc *core.Allocation
	// Assigned[i] lists the accessed channel ids FBS i+1 transmits on.
	Assigned [][]int
	// Greedy reports that Table III's greedy allocated the channels
	// (Proposed on an interfering network); Value and Bound are set only
	// then.
	Greedy bool
	// Value is the greedy objective Q(pi_L).
	Value float64
	// Bound is the tightened eq. (23) upper bound on the optimum
	// intersected with the interference-relaxation optimum, set only under
	// TrackBound.
	Bound float64
}

// NewAllocator builds the allocation half from a validated network and the
// run's options: Scheme picks the solver and TrackBound adds the
// relaxation solve.
func NewAllocator(net *netmodel.Network, opts Options) (*Allocator, error) {
	opts = opts.withDefaults()
	k := net.K()
	a := &Allocator{
		net:         net,
		interfering: net.Graph.NumEdges() > 0,
	}
	switch opts.Scheme {
	case Proposed:
		eq := &core.EquilibriumSolver{}
		a.solver = eq
		var q core.Solver = coldQ{eq}
		if !opts.coldSolves {
			q = eq
		}
		if a.interfering {
			a.greedy = &greedyStage{alloc: core.NewGreedyAllocator(q)}
		}
	case Heuristic1:
		a.solver = core.Heuristic1{}
	case Heuristic2:
		a.solver = core.Heuristic2{}
	case RoundRobin:
		a.solver = &core.RoundRobin{}
	case MaxThroughput:
		a.solver = core.MaxThroughput{}
	default:
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadOptions, int(opts.Scheme))
	}

	// Static frequency plan for schemes without per-slot channel
	// coordination: color the interference graph and let channel m serve
	// the FBSs of color (m mod numColors). Adjacent FBSs never share.
	a.colorOf, a.numColors = net.Graph.GreedyColoring()

	// Static per-user constants of problem (10); W is the caller's per slot.
	a.inst = core.Instance{
		R0:   make([]float64, k),
		R1:   make([]float64, k),
		PS0:  make([]float64, k),
		PS1:  make([]float64, k),
		FBS:  make([]int, k),
		G:    make([]float64, net.NumFBS),
		WMax: make([]float64, k),
	}
	for j, u := range net.Users {
		a.inst.R0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		a.inst.R1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		a.inst.PS0[j] = u.MBSLink.SuccessProbability()
		a.inst.PS1[j] = u.FBSLink.SuccessProbability()
		a.inst.FBS[j] = u.FBS
		a.inst.WMax[j] = u.Seq.MaxPSNR()
	}
	a.gVec = make([]float64, net.NumFBS)
	a.assigned = make([][]int, net.NumFBS)
	a.alloc = core.NewAllocation(k)
	// Only Proposed on an interfering network tracks the relaxation bound.
	a.trackBound = opts.TrackBound && a.greedy != nil
	if a.trackBound {
		a.relaxG = make([]float64, net.NumFBS)
		a.relaxAlloc = core.NewAllocation(k)
	}
	if opts.Scheme == Proposed && !opts.coldSolves {
		a.session = core.NewSolverSession()
		if a.trackBound {
			a.relaxSession = core.NewSolverSession()
		}
	}
	return a, nil
}

// coldQ hides the equilibrium solver's concrete type from the greedy
// allocator, which then evaluates every Q(.) as a plain cold SolveInto —
// no price seed, no per-FBS memo (Options.coldSolves).
type coldQ struct{ core.Solver }

// Step allocates one slot: the channel allocation for the slot's access
// decision st, then the solve of problem (10) at the users' current
// qualities w (indexed by user; aliased by the returned Instance, so keep
// it unchanged until the next Step).
func (a *Allocator) Step(st *SlotState, w []float64) (*SlotAllocation, error) {
	a.inst.W = w
	out := &a.out
	*out = SlotAllocation{}
	if g := a.greedy; g != nil {
		g.prob = core.ChannelProblem{
			Base:       &a.inst,
			Graph:      a.net.Graph,
			Channels:   st.Accessed,
			Posteriors: st.AccessedPA,
			SkipBound:  !a.trackBound,
		}
		res := &g.res
		if err := g.alloc.AllocateInto(&g.prob, res); err != nil {
			return nil, err
		}
		if a.trackBound {
			// Intersect the eq. (23) bound with the interference-relaxation
			// bound: giving every FBS every accessed channel enlarges the
			// feasible set, so its optimum also caps the true optimum.
			totalPA := 0.0
			for _, pa := range st.AccessedPA {
				totalPA += pa
			}
			for i := range a.relaxG {
				a.relaxG[i] = totalPA
			}
			eq := a.solver.(*core.EquilibriumSolver) // TrackBound runs Proposed
			v, err := eq.SolveWarmInto(a.withG(a.relaxG), a.relaxAlloc, a.relaxSession)
			if err != nil {
				return nil, err
			}
			out.Bound = res.UpperBound
			if v < out.Bound {
				out.Bound = v
			}
		}
		out.Instance = a.withG(res.G)
		out.Alloc = res.Alloc
		out.Assigned = res.Assigned
		out.Greedy = true
		out.Value = res.Value
		return out, nil
	}
	// Non-interfering (or the heuristics' frequency plan): channel m serves
	// the FBSs its color class allows.
	assigned := a.staticAssignment(st.Accessed)
	for i := range a.gVec {
		a.gVec[i] = 0
		for _, ch := range assigned[i] {
			a.gVec[i] += st.Decision.Channels[ch-1].Posterior
		}
	}
	withG := a.withG(a.gVec)
	if err := a.solve(withG, a.alloc, a.session); err != nil {
		return nil, err
	}
	out.Instance = withG
	out.Alloc = a.alloc
	out.Assigned = assigned
	return out, nil
}

// solve is the one per-slot solve dispatch: Proposed through sess, which
// is nil (the cold path) when the solves carry no sessions, else the
// scheme's plain SolveInto.
func (a *Allocator) solve(in *core.Instance, out *core.Allocation, sess *core.SolverSession) error {
	if eq, ok := a.solver.(*core.EquilibriumSolver); ok {
		_, err := eq.SolveWarmInto(in, out, sess)
		return err
	}
	return a.solver.SolveInto(in, out)
}

// withG returns the slot instance with a different expected-channel vector,
// on the allocator's reusable shallow view. Each use ends before the next:
// the returned pointer must not be kept across withG calls.
func (a *Allocator) withG(g []float64) *core.Instance {
	a.view = a.inst
	a.view.G = g
	return &a.view
}

// staticAssignment maps accessed channels to FBSs without per-slot
// coordination. With no interference every FBS reuses every channel; with
// interference, channel m serves the color class (m mod numColors) of the
// greedy-coloring frequency plan.
func (a *Allocator) staticAssignment(accessed []int) [][]int {
	n := a.net.NumFBS
	assigned := a.assigned
	for i := range assigned {
		assigned[i] = assigned[i][:0]
	}
	if !a.interfering {
		for i := 0; i < n; i++ {
			assigned[i] = append(assigned[i], accessed...)
		}
		return assigned
	}
	for idx, ch := range accessed {
		class := idx % a.numColors
		for i := 0; i < n; i++ {
			if a.colorOf[i] == class {
				assigned[i] = append(assigned[i], ch)
			}
		}
	}
	return assigned
}
