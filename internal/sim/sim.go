// Package sim drives the end-to-end slot simulation of the paper's §V: per
// time slot it evolves primary-user occupancy, senses every licensed channel
// with errors, fuses the results into availability posteriors, makes the
// collision-bounded access decision, runs a resource-allocation scheme, and
// realizes packet losses over block-fading links, accumulating per-GOP video
// quality exactly as the W-recursion of problem (10) prescribes.
package sim

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/par"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
	"femtocr/internal/stats"
	"femtocr/internal/trace"
	"femtocr/internal/video"
)

// Scheme selects the resource-allocation scheme under test.
type Scheme int

// The three schemes compared throughout §V.
const (
	// Proposed is the paper's algorithm: the optimum-achieving solver for
	// non-interfering deployments and the greedy channel allocation of
	// Table III on interfering ones.
	Proposed Scheme = iota + 1
	// Heuristic1 is equal time allocation with local channel choice.
	Heuristic1
	// Heuristic2 is multiuser diversity: whole slots to the best users.
	Heuristic2
	// RoundRobin is an extension baseline: plain TDMA rotation with no
	// channel-state information (below both of the paper's heuristics).
	RoundRobin
	// MaxThroughput is an extension baseline at the opposite pole from
	// proportional fairness: maximize the expected quality sum with no
	// balance concern.
	MaxThroughput
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Proposed:
		return "Proposed"
	case Heuristic1:
		return "Heuristic 1"
	case Heuristic2:
		return "Heuristic 2"
	case RoundRobin:
		return "Round robin"
	case MaxThroughput:
		return "Max throughput"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ErrBadOptions is returned for invalid run options.
var ErrBadOptions = errors.New("sim: invalid options")

// Options configures one simulation run.
type Options struct {
	// Seed drives all stochastic processes of the run (channel occupancy,
	// sensing errors, access decisions, fading). Runs with different seeds
	// are the independent replications averaged in the figures.
	Seed uint64
	// GOPs is the number of GOPs to simulate per user. Default 20.
	GOPs int
	// Scheme selects the allocation scheme. Default Proposed.
	Scheme Scheme
	// SensorPolicy assigns user sensors to channels. Default RoundRobin.
	SensorPolicy sensing.AssignmentPolicy
	// TrackBound also tracks the eq. (23) upper-bound quality trajectory
	// (only meaningful for Proposed on interfering deployments).
	TrackBound bool
	// CaptureDualTrace runs the paper's distributed dual algorithm
	// (Table I/II) on the first slot and records its price trajectory
	// (Fig. 4(a)). Ignored for heuristic schemes.
	CaptureDualTrace bool
	// DualIterations caps the traced dual iterations. Default 800.
	DualIterations int
	// UseDualSolver makes Proposed use the distributed subgradient solver
	// for every slot instead of the price-equilibrium solver. The two
	// produce near-identical allocations, but not bit-identical ones: on
	// the Fig. 4(c) grid 16 of 50 runs differ in mean PSNR.
	UseDualSolver bool
	// DisableLazyGreedy forces the greedy allocator to re-evaluate every
	// user's marginal gain on every iteration — the literal Table III loop.
	// The zero value (lazy evaluation on) produces identical allocations
	// with fewer Q evaluations; set this only to cross-check the lazy
	// optimization or to time the unoptimized loop.
	DisableLazyGreedy bool
	// TrackBeliefs replaces the stationary fusion prior with the Bayesian
	// occupancy filter (extension; see internal/belief).
	TrackBeliefs bool
	// EstimateUtilization learns each channel's eta online from the FBS's
	// own sensing reports instead of assuming it known (extension; ignored
	// when TrackBeliefs is set).
	EstimateUtilization bool
	// SolveStats collects per-slot solver iteration statistics into
	// Result.Warm. Every Proposed solve is warm-started: the slot solves
	// and the TrackBound relaxation solves carry their prices across slots
	// in per-engine core.SolverSessions, and the greedy allocator seeds its
	// Q evaluations from its base solve. The allocations are identical to
	// cold solves'. Costs one histogram per session at construction; the
	// per-slot recording is allocation-free.
	SolveStats bool
	// Recorder, when non-nil, receives slot-by-slot events for post-hoc
	// analysis (see internal/trace).
	Recorder *trace.Recorder
	// Parallel bundles the worker/shard knobs for RunSharded (see
	// par.Parallelism). Run itself is single-goroutine and ignores it.
	Parallel Parallelism

	// coldSolves runs every solve cold: no sessions (cold-probe ones under
	// SolveStats) and unseeded greedy Q evaluations. It exists only as the
	// reference the warm-start equivalence tests compare against.
	coldSolves bool
}

// Parallelism is the unified parallel-execution knob bundle shared with the
// experiment layer; see par.Parallelism.
type Parallelism = par.Parallelism

func (o *Options) withDefaults() Options {
	out := *o
	if out.GOPs == 0 {
		out.GOPs = 20
	}
	if out.Scheme == 0 {
		out.Scheme = Proposed
	}
	if out.SensorPolicy == 0 {
		out.SensorPolicy = sensing.RoundRobin
	}
	if out.DualIterations == 0 {
		out.DualIterations = 800
	}
	return out
}

// Result aggregates one run.
type Result struct {
	// PerUserPSNR is the mean end-of-GOP Y-PSNR of each user, dB.
	PerUserPSNR []float64
	// MeanPSNR averages PerUserPSNR over users.
	MeanPSNR float64
	// BoundPSNR is the mean upper-bound quality (eq. (23) converted to dB),
	// zero unless TrackBound was set.
	BoundPSNR float64
	// PerUserBound is each user's mean upper-bound quality, nil unless
	// TrackBound was set. BoundPSNR is its mean; the sharded engine re-sums
	// it in user order to fold bounds across shards bitwise.
	PerUserBound []float64
	// MinUserPSNR is the worst per-user mean quality — the user experience
	// floor, which proportional fairness is supposed to protect.
	MinUserPSNR float64
	// FairnessIndex is Jain's index over the users' quality gains
	// (PSNR above the base layer): 1 is perfectly even, 1/K fully
	// monopolized. This quantifies the paper's fairness claim for Fig. 3.
	FairnessIndex float64
	// CollisionRate is the worst per-channel conditional primary-user
	// collision rate observed — collisions divided by truly-busy slots, the
	// quantity eq. (6) bounds — which the access rule must keep near or
	// below gamma.
	CollisionRate float64
	// MeanExpectedChannels averages G_t over slots (diagnostic).
	MeanExpectedChannels float64
	// DualTrace is the per-iteration price trajectory of the first slot's
	// distributed solve, when CaptureDualTrace was set.
	DualTrace [][]float64
	// Warm reports the per-slot solver iteration statistics, nil unless
	// SolveStats was set. It is diagnostic metadata: exclude it from
	// determinism comparisons of allocations/quality (which do not depend
	// on it).
	Warm *WarmStartReport `json:",omitempty"`
	// GOPs is the number of completed GOPs per user.
	GOPs int
	// Slots is the number of simulated slots.
	Slots int
}

// Run simulates the network under the chosen scheme and returns the
// aggregated quality metrics.
func Run(net *netmodel.Network, opts Options) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadOptions)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.GOPs < 1 {
		return nil, fmt.Errorf("%w: GOPs=%d", ErrBadOptions, opts.GOPs)
	}

	e, err := newEngine(net, opts)
	if err != nil {
		return nil, err
	}
	totalSlots := opts.GOPs * net.T
	for slot := 0; slot < totalSlots; slot++ {
		if err := e.step(slot); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return e.result(), nil
}

// engine holds the per-run state.
type engine struct {
	net  *netmodel.Network
	opts Options

	front    *Frontend
	progress []*video.Progress
	bound    []*video.Progress

	fadeStream *rng.Stream

	solver      core.Solver
	greedy      *core.GreedyAllocator
	interfering bool

	// Static per-user constants of problem (10).
	r0, r1, ps0, ps1, wmax []float64
	fbsOf                  []int

	// Static channel split for the heuristic schemes on interfering
	// deployments (greedy-coloring frequency plan).
	colorOf   []int
	numColors int

	// Reusable per-slot state: the instance snapshot (instW/instG are its
	// backing arrays), the shallow view handed out by withG, the channel
	// vectors, the static assignment lists, the realized gains, and the
	// allocations written by SolveInto. All are owned by this engine and
	// overwritten every slot; the engine is single-goroutine by design.
	inst       core.Instance
	instView   core.Instance
	instW      []float64
	instG      []float64
	gVec       []float64
	relaxG     []float64
	assigned   [][]int
	gains      []float64
	alloc      *core.Allocation
	relaxAlloc *core.Allocation
	inflate    *core.Allocation
	chanProb   core.ChannelProblem
	intoSolver core.IntoSolver // non-nil when solver supports SolveInto

	// Warm-start plumbing: non-nil whenever the scheme's solver supports
	// sessions (relaxSession only when the relaxation bound is tracked).
	// The slot solves and the TrackBound relaxation solves carry separate
	// sessions — they are different problem families, and seeding one from
	// the other would thrash both trackers. Sessions are engine-owned and
	// single-goroutine like everything else here; RunSharded gets
	// per-shard sessions for free because every shard builds its own
	// engine.
	warmSolver   core.WarmSolver
	session      *core.SolverSession
	relaxSession *core.SolverSession

	dualTrace [][]float64
	sumG      float64
	slots     int
}

func newEngine(net *netmodel.Network, opts Options) (*engine, error) {
	root := rng.New(opts.Seed)
	front, err := NewFrontend(net, root, opts.SensorPolicy)
	if err != nil {
		return nil, err
	}
	if opts.TrackBeliefs {
		front.EnableBeliefTracking()
	} else if opts.EstimateUtilization {
		if err := front.EnableUtilizationEstimation(); err != nil {
			return nil, err
		}
	}
	e := &engine{
		net:        net,
		opts:       opts,
		front:      front,
		fadeStream: root.Split("fading"),
	}

	k := net.K()
	e.progress = make([]*video.Progress, k)
	e.r0 = make([]float64, k)
	e.r1 = make([]float64, k)
	e.ps0 = make([]float64, k)
	e.ps1 = make([]float64, k)
	e.wmax = make([]float64, k)
	e.fbsOf = make([]int, k)
	for j, u := range net.Users {
		e.progress[j] = video.NewProgress(u.Seq)
		e.r0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		e.r1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		e.ps0[j] = u.MBSLink.SuccessProbability()
		e.ps1[j] = u.FBSLink.SuccessProbability()
		e.wmax[j] = u.Seq.MaxPSNR()
		e.fbsOf[j] = u.FBS
	}
	if opts.TrackBound {
		e.bound = make([]*video.Progress, k)
		for j, u := range net.Users {
			e.bound[j] = video.NewProgress(u.Seq)
		}
	}

	e.interfering = net.Graph.NumEdges() > 0
	switch opts.Scheme {
	case Proposed:
		if opts.UseDualSolver {
			e.solver = core.NewDualSolver()
		} else {
			e.solver = &core.EquilibriumSolver{}
		}
		if e.interfering {
			var gopts []core.GreedyOption
			if !opts.DisableLazyGreedy {
				gopts = append(gopts, core.WithLazyEvaluation())
			}
			q := e.solver
			if opts.coldSolves {
				q = coldQ{e.solver.(core.IntoSolver)}
			}
			e.greedy = core.NewGreedyAllocator(q, gopts...)
		}
	case Heuristic1:
		e.solver = core.Heuristic1{}
	case Heuristic2:
		e.solver = core.Heuristic2{}
	case RoundRobin:
		e.solver = &core.RoundRobin{}
	case MaxThroughput:
		e.solver = core.MaxThroughput{}
	default:
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadOptions, int(opts.Scheme))
	}

	// Static frequency plan for schemes without per-slot channel
	// coordination: color the interference graph and let channel m serve
	// the FBSs of color (m mod numColors). Adjacent FBSs never share.
	e.colorOf, e.numColors = net.Graph.GreedyColoring()

	// Preallocate the per-slot buffers once.
	e.instW = make([]float64, k)
	e.instG = make([]float64, net.NumFBS)
	e.inst = core.Instance{
		W: e.instW, R0: e.r0, R1: e.r1, PS0: e.ps0, PS1: e.ps1,
		FBS: e.fbsOf, G: e.instG, WMax: e.wmax,
	}
	e.gVec = make([]float64, net.NumFBS)
	e.assigned = make([][]int, net.NumFBS)
	e.gains = make([]float64, k)
	e.alloc = core.NewAllocation(k)
	if opts.TrackBound {
		e.inflate = core.NewAllocation(k)
	}
	// Only Proposed on an interfering network tracks the relaxation bound.
	relax := opts.TrackBound && e.greedy != nil
	if relax {
		e.relaxG = make([]float64, net.NumFBS)
		e.relaxAlloc = core.NewAllocation(k)
	}
	e.intoSolver, _ = e.solver.(core.IntoSolver)
	if ws, ok := e.solver.(core.WarmSolver); ok && (!opts.coldSolves || opts.SolveStats) {
		e.warmSolver = ws
		newSession := core.NewSolverSession
		if opts.coldSolves {
			// The cold reference with stats: record the cold baseline
			// through seeding-disabled sessions, same instrumentation,
			// same solves.
			newSession = core.NewColdProbeSession
		}
		e.session = newSession()
		if relax {
			e.relaxSession = newSession()
		}
		if opts.SolveStats {
			e.session.EnableStats()
		}
	}
	return e, nil
}

// coldQ hides the equilibrium solver's concrete type from the greedy
// allocator, which then evaluates every Q(.) as a plain cold SolveInto —
// no price seed, no per-FBS memo (Options.coldSolves).
type coldQ struct{ core.IntoSolver }

// withG returns the slot instance with a different expected-channel vector,
// on the engine's reusable shallow view. Each use ends before the next: the
// returned pointer must not be kept across withG calls.
func (e *engine) withG(g []float64) *core.Instance {
	e.instView = e.inst
	e.instView.G = g
	return &e.instView
}

// step simulates one time slot.
//
//femtovet:hotpath
func (e *engine) step(slot int) error {
	net := e.net

	// Sensing and access phases (shared front half).
	st, err := e.front.Step(slot)
	if err != nil {
		return err
	}
	truth := st.Truth
	decision := st.Decision
	accessed := st.Accessed
	accessedPA := st.AccessedPA

	// Build the slot's problem instance.
	inst := e.instance()

	// Channel allocation: which FBS may use which accessed channel.
	var alloc *core.Allocation
	var gVec []float64
	var bound float64
	switch {
	case e.opts.Scheme == Proposed && e.interfering:
		e.chanProb = core.ChannelProblem{
			Base:       inst,
			Graph:      net.Graph,
			Channels:   accessed,
			Posteriors: accessedPA,
		}
		res, err := e.greedy.Allocate(&e.chanProb)
		if err != nil {
			return err
		}
		alloc = res.Alloc
		gVec = res.G
		bound = res.UpperBound
		if e.opts.TrackBound {
			// Intersect the eq. (23) bound with the interference-relaxation
			// bound: giving every FBS every accessed channel enlarges the
			// feasible set, so its optimum also caps the true optimum.
			totalPA := 0.0
			for _, pa := range accessedPA {
				totalPA += pa
			}
			relaxG := e.relaxG
			for i := range relaxG {
				relaxG[i] = totalPA
			}
			relaxed := e.withG(relaxG)
			relaxAlloc := e.relaxAlloc
			if e.warmSolver != nil {
				err = e.warmSolver.SolveWarmInto(relaxed, relaxAlloc, e.relaxSession)
			} else if e.intoSolver != nil {
				err = e.intoSolver.SolveInto(relaxed, relaxAlloc)
			} else {
				relaxAlloc, err = e.solver.Solve(relaxed)
			}
			if err != nil {
				return err
			}
			if v := relaxAlloc.Objective(relaxed); v < bound {
				bound = v
			}
		}
		// Transmission realization needs the channel->FBS map.
		gains := e.realize(e.withG(gVec), alloc, res.Assigned, truth)
		e.record(slot, st, alloc, gains)
		if e.opts.TrackBound {
			e.trackBound(e.withG(gVec), alloc, res.Value, bound, res.Assigned, truth)
		}
	default:
		// Non-interfering (or heuristic frequency plan): channel m serves
		// the FBSs its color class allows.
		assigned := e.staticAssignment(accessed)
		gVec = e.gVec
		for i := range gVec {
			gVec[i] = 0
		}
		for i := range assigned {
			for _, ch := range assigned[i] {
				gVec[i] += decision.Channels[ch-1].Posterior
			}
		}
		withG := e.withG(gVec)
		if e.warmSolver != nil {
			alloc = e.alloc
			err = e.warmSolver.SolveWarmInto(withG, alloc, e.session)
		} else if e.intoSolver != nil {
			alloc = e.alloc
			err = e.intoSolver.SolveInto(withG, alloc)
		} else {
			alloc, err = e.solver.Solve(withG)
		}
		if err != nil {
			return err
		}
		gains := e.realize(withG, alloc, assigned, truth)
		e.record(slot, st, alloc, gains)
	}
	e.sumG += decision.ExpectedAvailable()
	e.slots++

	// Dual-trace capture on the very first slot (Fig. 4(a)).
	if e.opts.CaptureDualTrace && slot == 0 && e.opts.Scheme == Proposed {
		if err := e.captureDualTrace(gVec); err != nil {
			return err
		}
	}

	// GOP boundary: record final PSNR and reset, per the delivery deadline.
	if (slot+1)%net.T == 0 {
		for _, p := range e.progress {
			p.EndGOP()
		}
		for _, p := range e.bound {
			p.EndGOP()
		}
	}
	return nil
}

// captureDualTrace runs the paper's literal constant-step subgradient with a
// small step on the first slot's problem, which exhibits the long Fig. 4(a)
// trajectory (the default diminishing schedule converges within tens of
// iterations), and records the price trajectory.
//
//femtovet:coldpath -- first-slot-only diagnostic; builds a fresh traced solver and keeps the escaping price trajectory
func (e *engine) captureDualTrace(gVec []float64) error {
	tracer := core.NewDualSolver(
		core.WithTrace(),
		core.WithMaxIter(e.opts.DualIterations),
		core.WithPhi(-1), // never terminate early: full-horizon trace
		core.WithConstantStep(),
		core.WithStepScale(0.01),
	)
	g := gVec
	if g == nil {
		g = make([]float64, e.net.NumFBS)
	}
	_, report, err := tracer.SolveDetailed(e.withG(g))
	if err != nil {
		return err
	}
	e.dualTrace = report.Trace
	return nil
}

// record forwards the slot's events to the configured trace recorder.
func (e *engine) record(slot int, st *SlotState, alloc *core.Allocation, gains []float64) {
	rec := e.opts.Recorder
	if rec == nil {
		return
	}
	collisions := 0
	for _, ch := range st.Accessed {
		if !st.Truth.Idle(ch) {
			collisions++
		}
	}
	// Recording errors cannot occur for engine-generated events; ignore the
	// returns to keep the hot path simple.
	_ = rec.RecordSlot(trace.SlotEvent{
		Slot:         slot,
		IdleChannels: st.Truth.NumIdle(),
		Accessed:     len(st.Accessed),
		ExpectedG:    st.Decision.ExpectedAvailable(),
		Collisions:   collisions,
	})
	gopDone := (slot+1)%e.net.T == 0
	for j := range gains {
		share := alloc.Rho1[j]
		if alloc.MBS[j] {
			share = alloc.Rho0[j]
		}
		_ = rec.RecordUser(trace.UserEvent{
			Slot:    slot,
			User:    j,
			OnMBS:   alloc.MBS[j],
			Share:   share,
			GainDB:  gains[j],
			PSNR:    e.progress[j].PSNR(),
			GOPDone: gopDone,
		})
	}
}

// staticAssignment maps accessed channels to FBSs without per-slot
// coordination. With no interference every FBS reuses every channel; with
// interference, channel m serves the color class (m mod numColors) of the
// greedy-coloring frequency plan.
func (e *engine) staticAssignment(accessed []int) [][]int {
	n := e.net.NumFBS
	assigned := e.assigned
	for i := range assigned {
		assigned[i] = assigned[i][:0]
	}
	if !e.interfering {
		for i := 0; i < n; i++ {
			assigned[i] = append(assigned[i], accessed...)
		}
		return assigned
	}
	for idx, ch := range accessed {
		class := idx % e.numColors
		for i := 0; i < n; i++ {
			if e.colorOf[i] == class {
				assigned[i] = append(assigned[i], ch)
			}
		}
	}
	return assigned
}

// instance refreshes the slot's user problem on the engine's reusable
// snapshot: only W changes between slots; G is the zero vector until a
// channel allocation assigns one via withG.
func (e *engine) instance() *core.Instance {
	for j := range e.instW {
		e.instW[j] = e.progress[j].PSNR()
	}
	for i := range e.instG {
		e.instG[i] = 0
	}
	return &e.inst
}

// realize draws the slot's packet-loss outcomes and credits delivered video
// quality: an MBS user succeeds iff its macro link decodes; an FBS user's
// delivered rate scales with the channels, among those assigned to its FBS,
// that are truly idle (transmissions on busy channels collide and are
// lost). It returns the realized per-user quality increments.
func (e *engine) realize(in *core.Instance, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy) []float64 {
	gains := e.gains
	for j := range gains {
		gains[j] = 0
	}
	for j := 0; j < in.K(); j++ {
		if alloc.MBS[j] {
			if alloc.Rho0[j] > 0 && !e.net.Users[j].MBSLink.Lost(e.fadeStream) {
				gains[j] = alloc.Rho0[j] * e.r0[j]
			}
		} else if alloc.Rho1[j] > 0 {
			idle := 0
			for _, ch := range assigned[in.FBS[j]-1] {
				if truth.Idle(ch) {
					idle++
				}
			}
			if idle > 0 && !e.net.Users[j].FBSLink.Lost(e.fadeStream) {
				gains[j] = alloc.Rho1[j] * float64(idle) * e.r1[j]
			}
		}
		e.progress[j].AddPSNR(gains[j])
	}
	return gains
}

// trackBound advances the upper-bound quality trajectory: the eq. (23)
// objective bound is converted to per-user quality by inflating every
// user's expected gain by the common factor theta >= 1 that makes the
// objective meet the bound, then applying the same realization discipline.
func (e *engine) trackBound(in *core.Instance, alloc *core.Allocation, value, upper float64, assigned [][]int, truth spectrum.Occupancy) {
	theta := gainInflation(in, alloc, value, upper, e.inflate)
	for j := 0; j < in.K(); j++ {
		gain := 0.0
		if alloc.MBS[j] {
			if alloc.Rho0[j] > 0 && !e.net.Users[j].MBSLink.Lost(e.fadeStream) {
				gain = alloc.Rho0[j] * e.r0[j]
			}
		} else if alloc.Rho1[j] > 0 {
			idle := 0
			for _, ch := range assigned[in.FBS[j]-1] {
				if truth.Idle(ch) {
					idle++
				}
			}
			if idle > 0 && !e.net.Users[j].FBSLink.Lost(e.fadeStream) {
				gain = alloc.Rho1[j] * float64(idle) * e.r1[j]
			}
		}
		e.bound[j].AddPSNR(theta * gain)
	}
}

// gainInflation finds theta >= 1 such that inflating every user's allocated
// quality increment by theta lifts the slot objective from value to upper.
// scratch, when non-nil, is a k-sized allocation reused across the ~100
// bisection evaluations; every entry is overwritten before being read.
func gainInflation(in *core.Instance, alloc *core.Allocation, value, upper float64, scratch *core.Allocation) float64 {
	if upper <= value {
		return 1
	}
	if scratch == nil {
		scratch = core.NewAllocation(in.K())
	}
	obj := func(theta float64) float64 {
		cp := scratch
		copy(cp.MBS, alloc.MBS)
		for j := range cp.Rho0 {
			cp.Rho0[j] = alloc.Rho0[j] * theta
			cp.Rho1[j] = alloc.Rho1[j] * theta
		}
		return cp.Objective(in)
	}
	lo, hi := 1.0, 2.0
	for i := 0; i < 40 && obj(hi) < upper; i++ {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if obj(mid) < upper {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// result finalizes the run metrics.
func (e *engine) result() *Result {
	k := e.net.K()
	res := &Result{
		PerUserPSNR: make([]float64, k),
		GOPs:        e.progress[0].CompletedGOPs(),
		Slots:       e.slots,
		DualTrace:   e.dualTrace,
		Warm:        e.warmReport(),
	}
	sum := 0.0
	gains := make([]float64, k)
	res.MinUserPSNR = math.Inf(1)
	for j, p := range e.progress {
		res.PerUserPSNR[j] = p.MeanPSNR()
		sum += p.MeanPSNR()
		gains[j] = p.MeanPSNR() - e.net.Users[j].Seq.RD.Alpha
		if p.MeanPSNR() < res.MinUserPSNR {
			res.MinUserPSNR = p.MeanPSNR()
		}
	}
	res.MeanPSNR = sum / float64(k)
	res.FairnessIndex = stats.JainIndex(gains)
	if e.bound != nil {
		res.PerUserBound = make([]float64, k)
		bsum := 0.0
		for j, p := range e.bound {
			res.PerUserBound[j] = p.MeanPSNR()
			bsum += p.MeanPSNR()
		}
		res.BoundPSNR = bsum / float64(k)
	}
	res.CollisionRate = e.front.CollisionRate()
	if e.slots > 0 {
		res.MeanExpectedChannels = e.sumG / float64(e.slots)
	}
	return res
}
