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
	// Prior selects the fusion prior of each slot's sensing. Default
	// StationaryPrior, the paper's.
	Prior Prior
	// TrackBound also tracks the upper-bound quality trajectory of
	// Proposed; other schemes ignore it. A slot the greedy of Table III
	// allocates advances it by the eq. (23) bound; any other slot, where
	// every FBS holds every accessed channel and the slot solve is the
	// optimum (the paper's Table II case), by the realized quality itself.
	TrackBound bool
	// DualTrace, when positive, runs the paper's distributed dual
	// algorithm (Table I/II) for that many iterations on the first slot
	// and records its price trajectory (Fig. 4(a)). Zero traces nothing;
	// heuristic schemes ignore it.
	DualTrace int
	// Recorder, when non-nil, receives slot-by-slot events for post-hoc
	// analysis (see internal/trace).
	Recorder *trace.Recorder
	// Parallel sets RunSharded's worker count (see par.Parallelism). Run
	// itself is single-goroutine and ignores it.
	Parallel Parallelism

	// coldSolves runs every solve cold: no sessions (so zero Result.Solves
	// and RelaxSolves) and unseeded greedy Q evaluations. It exists only as
	// the reference the warm-start equivalence tests compare against.
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
	return out
}

// Result aggregates one run.
type Result struct {
	// PerUserPSNR is the mean end-of-GOP Y-PSNR of each user, dB.
	PerUserPSNR []float64
	// MeanPSNR averages PerUserPSNR over users.
	MeanPSNR float64
	// BoundPSNR is the mean upper-bound quality (eq. (23) converted to dB),
	// zero unless TrackBound was set with Proposed. On a network without
	// interference it equals MeanPSNR.
	BoundPSNR float64
	// PerUserBound is each user's mean upper-bound quality, nil unless
	// TrackBound was set with Proposed. BoundPSNR is its mean; the sharded
	// engine re-sums it in user order to fold bounds across shards bitwise.
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
	// distributed solve, when Options.DualTrace was positive.
	DualTrace [][]float64
	// Solves counts the Proposed slot solves recorded by the engine's
	// warm-start session (core.SessionStats: solves, warm and cold starts,
	// outer-probe iterations). The greedy's Q evaluations on an interfering
	// network are not session solves, so there it stays zero, as it does
	// for the heuristics and the cold reference. It is diagnostic
	// metadata: the allocations and qualities do not depend on it.
	Solves core.SessionStats
	// RelaxSolves counts the TrackBound relaxation solves, which run
	// through their own session; zero unless the run tracks that bound
	// (TrackBound with Proposed on an interfering network).
	RelaxSolves core.SessionStats
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
	if opts.DualTrace < 0 {
		return nil, fmt.Errorf("%w: DualTrace=%d", ErrBadOptions, opts.DualTrace)
	}
	if opts.Prior < StationaryPrior || opts.Prior > BeliefPrior {
		return nil, fmt.Errorf("%w: Prior=%d", ErrBadOptions, int(opts.Prior))
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
	stage    *Allocator
	progress []*video.Progress
	bound    []*video.Progress

	fadeStream *rng.Stream

	// Reusable per-slot state, owned by this engine and overwritten every
	// slot (the engine is single-goroutine by design): the users' current
	// qualities handed to the allocation stage and the bound trajectory's
	// inflation scratch.
	w       []float64
	inflate *inflation

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
	if err := front.setPrior(opts.Prior); err != nil {
		return nil, err
	}
	stage, err := NewAllocator(net, opts)
	if err != nil {
		return nil, err
	}
	k := net.K()
	e := &engine{
		net:        net,
		opts:       opts,
		front:      front,
		stage:      stage,
		fadeStream: root.Split("fading"),
		progress:   make([]*video.Progress, k),
		w:          make([]float64, k),
	}
	for j, u := range net.Users {
		e.progress[j] = video.NewProgress(u.Seq)
	}
	if opts.TrackBound && opts.Scheme == Proposed {
		e.bound = make([]*video.Progress, k)
		for j, u := range net.Users {
			e.bound[j] = video.NewProgress(u.Seq)
		}
		e.inflate = newInflation(k)
	}
	return e, nil
}

// step simulates one time slot.
func (e *engine) step(slot int) error {
	// Sensing and access phases (shared front half).
	st, err := e.front.Step(slot)
	if err != nil {
		return err
	}
	// Channel allocation and the slot solve (shared allocation half), at
	// the users' current qualities.
	for j := range e.w {
		e.w[j] = e.progress[j].PSNR()
	}
	sa, err := e.stage.Step(st, e.w)
	if err != nil {
		return err
	}
	e.realize(sa.Instance, sa.Alloc, sa.Assigned, st.Truth, !sa.Greedy)
	e.record(slot, st, sa.Alloc)
	if sa.Greedy && e.bound != nil {
		e.trackBound(sa.Instance, sa.Alloc, sa.Value, sa.Bound, sa.Assigned, st.Truth)
	}
	e.sumG += st.Decision.ExpectedAvailable()
	e.slots++

	// Dual-trace capture on the very first slot (Fig. 4(a)).
	if e.opts.DualTrace > 0 && slot == 0 && e.opts.Scheme == Proposed {
		if err := e.captureDualTrace(sa.Instance); err != nil {
			return err
		}
	}

	// GOP boundary: record final PSNR and reset, per the delivery deadline.
	if (slot+1)%e.net.T == 0 {
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
func (e *engine) captureDualTrace(in *core.Instance) error {
	var report core.DualReport
	tracer := core.NewDualSolver(
		core.WithTrace(&report),
		core.WithMaxIter(e.opts.DualTrace),
		core.WithPhi(-1), // never terminate early: full-horizon trace
		core.WithConstantStep(),
		core.WithStepScale(0.01),
	)
	if err := tracer.SolveInto(in, core.NewAllocation(in.K())); err != nil {
		return err
	}
	e.dualTrace = report.Trace
	return nil
}

// record forwards the slot's events to the configured trace recorder.
func (e *engine) record(slot int, st *SlotState, alloc *core.Allocation) {
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
	for j, p := range e.progress {
		share := alloc.Rho1[j]
		if alloc.MBS[j] {
			share = alloc.Rho0[j]
		}
		_ = rec.RecordUser(trace.UserEvent{
			Slot:  slot,
			User:  j,
			Share: share,
			PSNR:  p.PSNR(),
		})
	}
}

// realize draws the slot's packet-loss outcomes and credits delivered video
// quality (see gain). With exact set, the slot's allocation is the optimum,
// so a tracked bound trajectory gains the same increments: theta = 1, and
// no draws of its own.
func (e *engine) realize(in *core.Instance, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy, exact bool) {
	for j, p := range e.progress {
		g := e.gain(in, alloc, j, assigned, truth)
		p.AddPSNR(g)
		if exact && e.bound != nil {
			e.bound[j].AddPSNR(g)
		}
	}
}

// trackBound advances the upper-bound quality trajectory: the eq. (23)
// objective bound is converted to per-user quality by inflating every
// user's expected gain by the common factor theta >= 1 that makes the
// objective meet the bound, then applying the same realization discipline
// with its own loss draws.
func (e *engine) trackBound(in *core.Instance, alloc *core.Allocation, value, upper float64, assigned [][]int, truth spectrum.Occupancy) {
	theta := e.inflate.solve(in, alloc, value, upper)
	for j := range e.bound {
		e.bound[j].AddPSNR(theta * e.gain(in, alloc, j, assigned, truth))
	}
}

// gain draws user j's packet-loss outcome for the slot and returns its
// realized quality increment: an MBS user succeeds iff its macro link
// decodes; an FBS user's delivered rate scales with the channels, among
// those assigned to its FBS, that are truly idle (transmissions on busy
// channels collide and are lost). A user without a share draws nothing.
func (e *engine) gain(in *core.Instance, alloc *core.Allocation, j int, assigned [][]int, truth spectrum.Occupancy) float64 {
	u := &e.net.Users[j]
	if alloc.MBS[j] {
		if alloc.Rho0[j] > 0 && !u.MBSLink.Lost(e.fadeStream) {
			return alloc.Rho0[j] * in.R0[j]
		}
		return 0
	}
	if alloc.Rho1[j] > 0 {
		idle := 0
		for _, ch := range assigned[in.FBS[j]-1] {
			if truth.Idle(ch) {
				idle++
			}
		}
		if idle > 0 && !u.FBSLink.Lost(e.fadeStream) {
			return alloc.Rho1[j] * float64(idle) * in.R1[j]
		}
	}
	return 0
}

// inflation finds the bound trajectory's gain inflation: the theta >= 1
// such that inflating every user's allocated quality increment by theta
// lifts the slot objective from the greedy value to the bound. It holds
// the search's per-slot state and scratch, sized for the run's users and
// reused every bounded slot.
type inflation struct {
	in    *core.Instance
	alloc *core.Allocation
	upper float64

	scaled *core.Allocation // alloc with every share times theta
	logW   []float64        // log W_j, taken once per slot

	// The verified bracket (see verify): while fast is set, every probe at
	// or below a reads below upper and every probe in [b, top] does not.
	fast      bool
	a, b, top float64
}

func newInflation(k int) *inflation {
	return &inflation{
		scaled: core.NewAllocation(k),
		logW:   make([]float64, k),
	}
}

// solve returns theta for the slot's allocation alloc on in, whose
// objective is value, and the bound upper.
//
// Every probe of the search only asks whether the objective at theta reads
// below upper. The computed objective need not be monotone in theta, but
// it lies within a margin e of one that is (see margin), so two objective
// evaluations can verify a bracket (a, b] around a predicted crossing
// (predict) that answers every probe outside it with one comparison
// (verify, below). The search then takes the same branches as without the
// bracket, so its theta is the same, bit for bit. A prediction that is not
// a finite positive theta, or a bracket that fails verification, leaves
// every probe evaluated.
func (f *inflation) solve(in *core.Instance, alloc *core.Allocation, value, upper float64) float64 {
	if upper <= value {
		return 1
	}
	f.start(in, alloc, upper)
	f.fast = false
	if theta := f.predict(value); theta > 0 && theta < math.MaxFloat64 {
		// A half-width of 6e over the slope holds the crossing, which the
		// prediction finds to within about e, with the 3e each end's check
		// needs to spare.
		e := f.margin(theta)
		h := 6*e/f.slope(theta) + 0x1p-50*theta
		f.fast = f.verify(theta-h, theta+h, e)
	}
	return f.search()
}

// start readies f for one slot.
func (f *inflation) start(in *core.Instance, alloc *core.Allocation, upper float64) {
	f.in, f.alloc, f.upper = in, alloc, upper
	for j, w := range in.W {
		f.logW[j] = math.Log(w)
	}
}

// search is the doubling-and-bisection search on theta down to adjacent
// floats.
func (f *inflation) search() float64 {
	lo, hi := 1.0, 2.0
	for i := 0; i < 40 && f.below(hi); i++ {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		// mid is lo or hi once they are adjacent floats. That step may
		// still set hi = lo, but after it every step probes the same mid
		// and leaves both as they are.
		last := !(lo < mid && mid < hi)
		if f.below(mid) {
			lo = mid
		} else {
			hi = mid
		}
		if last {
			break
		}
	}
	return hi
}

// below reports whether the objective at theta reads below upper: from the
// verified bracket when it decides theta, else by evaluating it.
func (f *inflation) below(theta float64) bool {
	switch {
	case !f.fast:
		return f.obj(theta) < f.upper
	case theta <= f.a:
		return true
	case theta >= f.b && theta <= f.top:
		return false
	}
	return f.obj(theta) < f.upper
}

// obj is the objective of alloc with every share inflated by theta.
func (f *inflation) obj(theta float64) float64 {
	copy(f.scaled.MBS, f.alloc.MBS)
	for j := range f.scaled.Rho0 {
		f.scaled.Rho0[j] = f.alloc.Rho0[j] * theta
		f.scaled.Rho1[j] = f.alloc.Rho1[j] * theta
	}
	return f.scaled.ObjectiveLogW(f.in, f.logW)
}

// user returns user j's success probability, share and rate on the
// resource alloc serves it on; the rate is computed as Instance.effR1
// computes it.
func (f *inflation) user(j int) (ps, rho, r float64) {
	in := f.in
	if f.alloc.MBS[j] {
		return in.PS0[j], f.alloc.Rho0[j], in.R0[j]
	}
	return in.PS1[j], f.alloc.Rho1[j], in.G[in.FBS[j]-1] * in.R1[j]
}

// room returns user j's room below its encoding ceiling, computed as
// Instance.clampGain computes it, and whether it has a ceiling.
func (f *inflation) room(j int) (float64, bool) {
	if f.in.WMax == nil {
		return 0, false
	}
	return f.in.WMax[j] - f.in.W[j], true
}

// slope is the objective's derivative in theta, in exact arithmetic: each
// user whose gain rho*theta*r is below its ceiling adds ps*rho*r/(W+gain).
func (f *inflation) slope(theta float64) float64 {
	d := 0.0
	for j := range f.in.W {
		ps, rho, r := f.user(j)
		g := rho * theta * r
		if room, ok := f.room(j); ok && g > room {
			continue
		}
		d += ps * rho * r / (f.in.W[j] + g)
	}
	return d
}

// predict estimates the theta at which the objective meets upper by
// Newton's method on the objective, which is concave and nondecreasing in
// theta, from theta = 1, where the objective is close to value, until a
// step moves theta by at most 1e-7 of itself.
func (f *inflation) predict(value float64) float64 {
	theta, obj := 1.0, value
	for it := 0; ; it++ {
		if it > 0 {
			obj = f.obj(theta)
		}
		step := (f.upper - obj) / f.slope(theta)
		theta += step
		if !(math.Abs(step) > 1e-7*theta) || it == 6 {
			return theta
		}
	}
}

// margin returns e, which bounds how far the computed objective lies from
// a monotone one at every theta up to top = max(2, 4*theta), and sets top.
//
// With x_j = fl(W_j + gain_j), let F be the exact sum of ps_j*ln(x_j) plus
// each term's computed constant fl((1-ps_j)*log W_j). Each gain is
// nondecreasing in theta (rounded products and the clamp are monotone), so
// F is. Each computed term lies within 4.1u*a_j of F's, with a math.Log
// within 1 ulp, and the K-term sum within 1.01u times the sum of its
// partial sums' magnitudes, where a_j = |log W_j| + gmax_j/W_j +
// |(1-ps_j) log W_j| + 1 bounds every term at a theta up to top (gmax_j
// bounds the gain there, and ln(W+g) <= ln W + g/W): e = u(4.2 Σa + 1.02
// Σ_k P_k), P_k = a_0 + ... + a_k for k >= 1.
func (f *inflation) margin(theta float64) float64 {
	const u = 0x1p-53 // unit roundoff
	f.top = max(2, 4*theta)
	var sumA, prefix, prefixes float64
	for j, w := range f.in.W {
		ps, rho, r := f.user(j)
		g := rho * f.top * r * (1 + 0x1p-40)
		if room, ok := f.room(j); ok {
			g = min(g, max(room, 0))
		}
		lw := f.logW[j]
		a := math.Abs(lw) + g/w + math.Abs((1-ps)*lw) + 1
		sumA += a
		prefix += a
		if j > 0 {
			prefixes += prefix
		}
	}
	return u * (4.2*sumA + 1.02*prefixes)
}

// verify reports whether the bracket (a, b] holds, given the margin e of
// top, and makes it f's bracket. For theta <= a, obj(theta) <= F(theta) + e
// <= F(a) + e <= obj(a) + 2e, so obj(a) + 3e < upper proves that every such
// probe reads below upper (the extra e covers the check's rounding); and
// obj(b) - 3e >= upper likewise proves that every probe in [b, top] does
// not. The search's probes stay at or below the first power of two at or
// above max(2, b), which is below top when b is within the top its margin
// was taken for; a probe above top is evaluated, as one inside the bracket
// is.
func (f *inflation) verify(a, b, e float64) bool {
	f.a, f.b = a, b
	if !(a > 0 && a < b && b <= f.top) {
		return false
	}
	return f.obj(a)+3*e < f.upper && f.obj(b)-3*e >= f.upper
}

// result finalizes the run metrics.
func (e *engine) result() *Result {
	k := e.net.K()
	res := &Result{
		PerUserPSNR: make([]float64, k),
		GOPs:        e.progress[0].CompletedGOPs(),
		Slots:       e.slots,
		DualTrace:   e.dualTrace,
	}
	if sess := e.stage.session; sess != nil {
		res.Solves = sess.Stats()
	}
	if relax := e.stage.relaxSession; relax != nil {
		res.RelaxSolves = relax.Stats()
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
