package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"femtocr/internal/igraph"
)

// ErrBadChannelProblem is returned when a greedy channel-allocation problem
// is malformed.
var ErrBadChannelProblem = errors.New("core: invalid channel-allocation problem")

// Candidate pairs {i, m} of Table III are keyed by the flat index
// pairIdx = fbs*len(Channels) + chIdx, so the candidate set is a reusable
// []bool in the workspace rather than a map whose deterministic traversal
// needed a rebuilt-and-sorted key slice every round (the old mapiter
// pressure). Ascending pairIdx order is exactly the old sorted
// (fbs, chIdx) order, so evaluation sequences — and therefore results —
// are unchanged.

// lazyEntry is one cached candidate gain on the lazy-evaluation max-heap.
type lazyEntry struct {
	idx   int // pairIdx of the candidate
	gain  float64
	round int // allocation round the gain was computed in
}

// ChannelProblem is the input to the greedy algorithm of Table III: the
// slot's user problem (with G to be determined), the interference graph over
// the FBSs, and the accessed licensed channels A(t) with their availability
// posteriors P_A.
type ChannelProblem struct {
	Base       *Instance     // per-user data; Base.G supplies N and is ignored otherwise
	Graph      *igraph.Graph // vertices 0..N-1 are FBSs 1..N
	Channels   []int         // 1-based ids of the accessed channels A(t)
	Posteriors []float64     // P_A of each accessed channel, parallel to Channels
	// SkipBound spares the Q solves that only the eq. (23) slack reads: a
	// caller that ignores the bound sets it, and Allocate then leaves
	// UpperBound and PaperUpperBound at zero. Every other result field is
	// the same to the bit (see take).
	SkipBound bool
}

// Validate checks the problem.
func (p *ChannelProblem) Validate() error {
	if p.Base == nil {
		return fmt.Errorf("%w: nil base instance", ErrBadChannelProblem)
	}
	if err := p.Base.Validate(); err != nil {
		return err
	}
	if p.Graph == nil {
		return fmt.Errorf("%w: nil interference graph", ErrBadChannelProblem)
	}
	if p.Graph.N() != p.Base.N() {
		return fmt.Errorf("%w: graph has %d vertices, instance %d FBSs", ErrBadChannelProblem, p.Graph.N(), p.Base.N())
	}
	if len(p.Channels) != len(p.Posteriors) {
		return fmt.Errorf("%w: %d channels vs %d posteriors", ErrBadChannelProblem, len(p.Channels), len(p.Posteriors))
	}
	for i, pa := range p.Posteriors {
		if pa < 0 || pa > 1 || math.IsNaN(pa) {
			return fmt.Errorf("%w: posterior[%d]=%v", ErrBadChannelProblem, i, pa)
		}
	}
	return nil
}

// GreedyStep records one iteration of Table III.
type GreedyStep struct {
	FBS     int     // 0-based FBS index chosen
	Channel int     // 1-based channel id chosen
	Gain    float64 // Delta_l = Q(pi_l) - Q(pi_{l-1})
	Degree  int     // D(l): interference-graph degree of the chosen FBS
	// LiveDegree counts only the neighbors whose pair with this channel was
	// still in the candidate set when the step was taken. The conflict sets
	// omega_l of Lemma 5 exclude pairs conflicting with earlier allocations,
	// so |omega_l| <= LiveDegree <= D(l), giving a tighter valid bound.
	LiveDegree int
}

// GreedyResult is the outcome of the greedy channel allocation.
type GreedyResult struct {
	// Assigned[i] lists the channel ids allocated to FBS i+1, sorted.
	Assigned [][]int
	// G is the resulting expected-available-channel vector.
	G []float64
	// Alloc is the user allocation solved on the final G.
	Alloc *Allocation
	// Value is Q(pi_L), the objective achieved by the greedy allocation.
	Value float64
	// UpperBound is the tightened eq. (23) bound on the global optimum:
	// Q(pi_L) + sum_l LiveDegree(l)*Delta_l. Valid because the conflict set
	// omega_l only holds optimal pairs not conflicting with earlier steps.
	UpperBound float64
	// PaperUpperBound is the literal eq. (23) bound with the full vertex
	// degree D(l): Q(pi_L) + sum_l D(l)*Delta_l. Always >= UpperBound. In
	// both bounds a step whose measured gain is negative (solver noise)
	// contributes no slack.
	PaperUpperBound float64
	// LowerBoundFactor is Theorem 2's guarantee 1/(1+Dmax): the greedy
	// value is at least this fraction of the optimum.
	LowerBoundFactor float64
	// Steps traces the allocation sequence.
	Steps []GreedyStep
	// Evaluations counts Q(.) solves, the algorithm's cost driver. A gain
	// shared from a twin channel (same FBS, same posterior bits, same
	// round; see gainOf) is not a solve and is not counted.
	Evaluations int
}

// GreedyAllocator implements Table III: repeatedly allocate the FBS-channel
// pair with the largest objective increase, removing the pair and its
// interference-graph conflicts from the candidate set.
type GreedyAllocator struct {
	solver Solver
	lazy   bool
}

// GreedyOption configures a GreedyAllocator.
type GreedyOption func(*GreedyAllocator)

// WithLazyEvaluation enables lazy re-evaluation of candidate gains: gains
// are submodular (the paper's Property 1), so a cached gain that is still
// the largest after re-evaluation is guaranteed optimal. Reduces Q(.)
// evaluations substantially with identical results.
func WithLazyEvaluation() GreedyOption { return func(g *GreedyAllocator) { g.lazy = true } }

// NewGreedyAllocator builds the allocator with the given Q(c) evaluator; a
// nil solver defaults to the EquilibriumSolver. The evaluator must be
// deterministic, as every Solver of this package is: the allocator reuses
// a gain wherever it would solve the same instance again (see gainOf).
func NewGreedyAllocator(solver Solver, opts ...GreedyOption) *GreedyAllocator {
	if solver == nil {
		solver = &EquilibriumSolver{}
	}
	g := &GreedyAllocator{solver: solver}
	for _, o := range opts {
		o(g)
	}
	return g
}

// greedyRun bundles one Allocate call's state: the problem, the candidate
// set keyed by pairIdx over the workspace's alive buffer, and the running
// objective. Everything scratch lives on the pooled workspace; everything
// that escapes lives on res.
type greedyRun struct {
	p          *ChannelProblem
	nCh        int
	ws         *solveWorkspace
	eq         *EquilibriumSolver // non-nil: Q solves share ws (equilibrium memo)
	alive      []bool             // candidate liveness, indexed by pairIdx
	aliveCount int
	cur        float64 // Q of the current partial allocation
	round      int     // allocation rounds completed (gain-cache tag)
	res        *GreedyResult
	slack      boundSlack
	last       int // the latest accepted pair, -1 before the first
}

// newGreedyResult builds the escaping result shell of one Allocate call.
func newGreedyResult(n, maxDegree int) *GreedyResult {
	return &GreedyResult{
		Assigned:         make([][]int, n),
		G:                make([]float64, n),
		LowerBoundFactor: 1 / (1 + float64(maxDegree)),
	}
}

// Allocate runs Table III and solves the user problem on the resulting
// channel allocation.
func (g *GreedyAllocator) Allocate(p *ChannelProblem) (*GreedyResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Base.N()
	res := newGreedyResult(n, p.Graph.MaxDegree())

	ws := getWorkspace()
	defer putWorkspace(ws)
	r := &greedyRun{p: p, nCh: len(p.Channels), ws: ws, res: res, last: -1}
	r.eq, _ = g.solver.(*EquilibriumSolver)
	if r.eq == nil {
		// The cached log(W) terms depend only on Base.W, which every Q
		// evaluation shares regardless of its trial G vector. Equilibrium
		// Q solves prepare them once per epoch themselves.
		ws.prepareUsers(p.Base)
	}
	// Equilibrium Q solves run on this same workspace so their per-FBS
	// memo persists across evaluations; one epoch per base instance.
	ws.bumpEqEpoch()

	nPairs := n * r.nCh
	r.alive = growB(ws.alive, nPairs)
	ws.alive = r.alive
	for i := range r.alive {
		r.alive[i] = true
	}
	r.aliveCount = nPairs
	ws.gains = growF(ws.gains, nPairs)
	ws.gainRound = growI(ws.gainRound, nPairs)
	for i := range ws.gainRound {
		ws.gainRound[i] = -1
	}
	k := p.Base.K()
	ws.pairMBS = growB(ws.pairMBS, nPairs*k)
	ws.pairRho0 = growF(ws.pairRho0, nPairs*k)
	ws.pairRho1 = growF(ws.pairRho1, nPairs*k)

	var err error
	if r.cur, err = g.q(r, res.G); err != nil {
		return nil, err
	}
	// Every later equilibrium solve of this call — each Q evaluation and
	// the final allocation — brackets its common price around the base
	// Q(∅) solve's. One seed for all of them, never chained from candidate
	// to candidate: identical brackets give identical leading probes, which
	// the per-FBS memo answers for every FBS the candidate leaves alone.
	ws.eqSeeded = r.eq != nil && ws.eqL0 > 0

	if g.lazy {
		err = g.runLazy(r)
	} else {
		err = g.runEager(r)
	}
	if err != nil {
		return nil, err
	}

	for i := range res.Assigned {
		sort.Ints(res.Assigned[i])
	}
	res.Value = r.cur
	if !p.SkipBound {
		res.UpperBound = r.cur + r.slack.live
		res.PaperUpperBound = r.cur + r.slack.full
	}
	// The final allocation escapes to the caller, so it gets fresh memory
	// rather than workspace scratch. The last accepted pair's Q evaluation
	// already solved the final G: its trial G is the final G to the bit
	// (take adds the same posterior to the same entry), and every Q
	// evaluation after the base solve is a pure function of G (see gainOf),
	// so the allocation kept from it is the one a re-solve would write.
	// That pair solved its own trial G, since a gain shared from a twin
	// leaves the twin, of the same FBS, alive, so a pair accepted on one is
	// never the last. Only a run that accepted no pair solves, at G = 0:
	// the base solve there ran unseeded.
	final := NewAllocation(k)
	if r.last >= 0 {
		lo := r.last * k
		copy(final.MBS, ws.pairMBS[lo:lo+k])
		copy(final.Rho0, ws.pairRho0[lo:lo+k])
		copy(final.Rho1, ws.pairRho1[lo:lo+k])
	} else {
		inst := &ws.qInstance
		*inst = *p.Base
		inst.G = res.G
		if r.eq != nil {
			_, err = r.eq.solveWS(inst, final, ws, nil)
		} else {
			err = g.solver.SolveInto(inst, final)
		}
		if err != nil {
			return nil, err
		}
	}
	res.Alloc = final
	ws.qInstance = Instance{} // drop aliases into caller data before pooling
	return res, nil
}

// q evaluates the user problem Q(c) for an expected-channel vector, solving
// into workspace scratch. gvec may alias workspace memory; it is only read
// during the solve. The default equilibrium solver runs directly on the
// run's workspace — already validated and epoch-bumped by Allocate — so its
// per-FBS memo carries over between evaluations, and it returns the
// objective its polish already summed; any other solver is a plain
// SolveInto, evaluated afterwards.
func (g *GreedyAllocator) q(r *greedyRun, gvec []float64) (float64, error) {
	r.res.Evaluations++
	inst := &r.ws.qInstance
	*inst = *r.p.Base
	inst.G = gvec
	if r.eq != nil {
		return r.eq.solveWS(inst, &r.ws.qAlloc, r.ws, nil)
	}
	if err := g.solver.SolveInto(inst, &r.ws.qAlloc); err != nil {
		return 0, err
	}
	return r.ws.qAlloc.ObjectiveLogW(inst, r.ws.logW), nil
}

// gainOf returns the marginal gain of allocating candidate idx on top of the
// current partial allocation, on the workspace trial buffer, and records it
// in the round-tagged gain cache: the partial allocation (and therefore the
// gain) only changes when a pair is accepted, so a gain computed earlier in
// the same round is the exact float a recomputation would produce.
//
// The same holds across twin channels: a channel of the same FBS whose
// posterior has the same bits yields the same trial G, and once the base
// solve has fixed the price seed every Q evaluator is a pure function of G
// within one Allocate (the memos are exact), so a same-round gain of a twin
// is copied instead of solved.
//
// Each solve's allocation is kept under its pair (keep).
func (g *GreedyAllocator) gainOf(r *greedyRun, idx int) (float64, error) {
	fbs, ch := idx/r.nCh, idx%r.nCh
	pa := math.Float64bits(r.p.Posteriors[ch])
	for c := 0; c < r.nCh; c++ {
		twin := fbs*r.nCh + c
		if c != ch && r.ws.gainRound[twin] == r.round && math.Float64bits(r.p.Posteriors[c]) == pa {
			return r.recordGain(idx, r.ws.gains[twin]), nil
		}
	}
	trial := growF(r.ws.trial, len(r.res.G))
	r.ws.trial = trial
	copy(trial, r.res.G)
	trial[fbs] += r.p.Posteriors[ch]
	v, err := g.q(r, trial)
	if err != nil {
		return 0, err
	}
	r.keep(idx)
	return r.recordGain(idx, v-r.cur), nil
}

// keep stores the allocation of candidate idx's Q evaluation, just solved
// into qAlloc, in idx's slot of the pair arena. Once idx is accepted its
// slot stays as it is: an accepted pair is never solved again.
func (r *greedyRun) keep(idx int) {
	k, q := r.p.Base.K(), &r.ws.qAlloc
	lo := idx * k
	copy(r.ws.pairMBS[lo:lo+k], q.MBS)
	copy(r.ws.pairRho0[lo:lo+k], q.Rho0)
	copy(r.ws.pairRho1[lo:lo+k], q.Rho1)
}

// recordGain caches candidate idx's gain for the current round.
func (r *greedyRun) recordGain(idx int, gain float64) float64 {
	r.ws.gains[idx] = gain
	r.ws.gainRound[idx] = r.round
	return gain
}

// cachedGainOf is gainOf short-circuited by the same-round cache.
func (g *GreedyAllocator) cachedGainOf(r *greedyRun, idx int) (float64, error) {
	if r.ws.gainRound[idx] == r.round {
		return r.ws.gains[idx], nil
	}
	return g.gainOf(r, idx)
}

// boundSlack accumulates the degree-weighted gain sums of the two eq. (23)
// variants.
type boundSlack struct {
	live float64 // sum of LiveDegree(l) * Delta_l
	full float64 // sum of D(l) * Delta_l
}

// take applies a chosen pair: update state, record the step, and remove the
// pair plus its interference conflicts from the candidate set. The eq. (23)
// bound terms use the current marginal gain of each still-live conflicting
// pair, served from the same-round gain cache when the pair was already
// evaluated this round (the cached float is exactly what a recomputation
// against the unchanged partial allocation would return); by Lemma 6 the
// live gain never exceeds the chosen gain, and summing the actual values
// instead of Delta_l tightens the bound further.
//
// Under SkipBound no conflicting pair is solved. Such a solve writes only
// the gain-cache entry and the pair-arena slot of a pair this call kills,
// whose tag round++ retires before any twin lookup, and exact memo
// entries; every Q evaluation after the base solve is a pure function of G
// (see gainOf), so no later decision can change.
func (g *GreedyAllocator) take(r *greedyRun, best int, gain float64) error {
	fbs, chIdx := best/r.nCh, best%r.nCh
	deg := r.p.Graph.Degree(fbs)
	live := 0
	for _, nb := range r.p.Graph.Neighbors(fbs) {
		idx := nb*r.nCh + chIdx
		if !r.alive[idx] {
			continue
		}
		live++
		if r.p.SkipBound {
			continue
		}
		lg, err := g.cachedGainOf(r, idx)
		if err != nil {
			return err
		}
		if lg > gain {
			lg = gain // Lemma 6 guarantees this; guard against solver noise
		}
		if lg > 0 {
			r.slack.live += lg
		}
	}
	r.last = best
	r.res.G[fbs] += r.p.Posteriors[chIdx]
	r.res.Assigned[fbs] = append(r.res.Assigned[fbs], r.p.Channels[chIdx])
	r.res.Steps = append(r.res.Steps, GreedyStep{
		FBS:        fbs,
		Channel:    r.p.Channels[chIdx],
		Gain:       gain,
		Degree:     deg,
		LiveDegree: live,
	})
	r.cur += gain
	// Q is nondecreasing in G, so a negative gain is solver noise; like the
	// live term above, it adds no slack (a negative D(l)*Delta_l would pull
	// the literal bound below the tightened one).
	if gain > 0 {
		r.slack.full += float64(deg) * gain
	}
	r.kill(best)
	for _, nb := range r.p.Graph.Neighbors(fbs) {
		r.kill(nb*r.nCh + chIdx)
	}
	r.round++ // the partial allocation changed: cached gains are now stale
	return nil
}

// kill removes candidate idx from the set if still present.
func (r *greedyRun) kill(idx int) {
	if r.alive[idx] {
		r.alive[idx] = false
		r.aliveCount--
	}
}

// runEager is the literal Table III loop: re-evaluate every remaining
// candidate each round and take the best. Candidates are scanned in
// ascending pairIdx order, the same deterministic (fbs, chIdx) order the
// sorted map keys used to give.
func (g *GreedyAllocator) runEager(r *greedyRun) error {
	for r.aliveCount > 0 {
		bestGain := math.Inf(-1)
		best := -1
		for idx := range r.alive {
			if !r.alive[idx] {
				continue
			}
			gain, err := g.gainOf(r, idx)
			if err != nil {
				return err
			}
			if gain > bestGain {
				bestGain = gain
				best = idx
			}
		}
		if err := g.take(r, best, bestGain); err != nil {
			return err
		}
	}
	return nil
}

// runLazy exploits submodularity: cached gains only shrink as the
// allocation grows, so the best stale gain, once refreshed and still on
// top, is the true maximum. The max-heap lives on workspace scratch.
func (g *GreedyAllocator) runLazy(r *greedyRun) error {
	heap := r.ws.heap[:0]
	defer func() { r.ws.heap = heap[:0] }()
	push := func(e lazyEntry) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent].gain >= heap[i].gain {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() lazyEntry {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, rr := 2*i+1, 2*i+2
			largest := i
			if l < len(heap) && heap[l].gain > heap[largest].gain {
				largest = l
			}
			if rr < len(heap) && heap[rr].gain > heap[largest].gain {
				largest = rr
			}
			if largest == i {
				break
			}
			heap[i], heap[largest] = heap[largest], heap[i]
			i = largest
		}
		return top
	}

	// Deterministic initial order: ascending pairIdx.
	for idx := range r.alive {
		gain, err := g.gainOf(r, idx)
		if err != nil {
			return err
		}
		push(lazyEntry{idx: idx, gain: gain, round: 0})
	}

	for len(heap) > 0 {
		top := pop()
		if !r.alive[top.idx] {
			continue // removed by an interference conflict
		}
		if top.round != r.round {
			gain, err := g.gainOf(r, top.idx)
			if err != nil {
				return err
			}
			push(lazyEntry{idx: top.idx, gain: gain, round: r.round})
			continue
		}
		if err := g.take(r, top.idx, top.gain); err != nil {
			return err
		}
	}
	return nil
}

// ExhaustiveChannelOptimum enumerates the interference-feasible channel
// allocations that can be optimal — each channel independently goes to any
// maximal independent set of the graph — and returns the best objective
// value found. Q is nondecreasing in G, so widening a channel's set never
// lowers it, and some best allocation gives every channel a maximal set.
// The cost is O(M(G)^len(Channels)) solver calls, where M(G) counts the
// graph's maximal independent sets, so this is a ground-truth reference for
// small instances (tests, the topology study, bound validation), not a
// production path.
func ExhaustiveChannelOptimum(p *ChannelProblem, solver Solver) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return bestOverSets(p, solver, maximalIndependentSets(p.Graph))
}

// maximalIndependentSets lists the graph's maximal independent sets in
// ascending bitmask order: every member has no neighbor in the set, and
// every other vertex has one.
func maximalIndependentSets(g *igraph.Graph) [][]int {
	n := g.N()
	var sets [][]int
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for v := 0; v < n && ok; v++ {
			covered := false // v has a neighbor in the set
			for _, u := range g.Neighbors(v) {
				if mask&(1<<u) != 0 {
					covered = true
					break
				}
			}
			ok = (mask&(1<<v) != 0) != covered
		}
		if !ok {
			continue
		}
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// bestOverSets returns the best objective over the allocations that give
// each channel, independently, one of sets; a nil solver is the
// EquilibriumSolver.
func bestOverSets(p *ChannelProblem, solver Solver, sets [][]int) (float64, error) {
	if solver == nil {
		solver = &EquilibriumSolver{}
	}
	n := p.Base.N()
	best := math.Inf(-1)
	alloc := NewAllocation(p.Base.K())
	var rec func(c int, g []float64) error
	rec = func(c int, g []float64) error {
		if c == len(p.Channels) {
			withG := p.Base.WithG(g)
			if err := solver.SolveInto(withG, alloc); err != nil {
				return err
			}
			if v := alloc.Objective(withG); v > best {
				best = v
			}
			return nil
		}
		for _, set := range sets {
			g2 := append([]float64(nil), g...)
			for _, i := range set {
				g2[i] += p.Posteriors[c]
			}
			if err := rec(c+1, g2); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, make([]float64, n)); err != nil {
		return 0, err
	}
	return best, nil
}
