package core

import (
	"fmt"
	"math"
	"testing"

	"femtocr/internal/rng"
)

// The equilibrium solve takes five exact shortcuts: both bisections decide
// a probe from a log-free demand bound when it fits the budget, the inner
// bisection stops once its choices are proven (innerExit), it is memoized
// (exact table and window memo), the water-fills are memoized per epoch,
// and the association polish skips its flip round when the fills' prices
// certify that no flip can win. A sixth, a warm solve's deferred floor
// probe, is exact only where MBS demand is monotone. A fresh workspace
// takes the bound shortcuts and the inner exit too, so only a solve
// without any of them can catch a wrong bound. refSolver is that solve,
// the way scalarWaterfill is for waterfillColumns: every probe sums the
// demand of the members' actual choices, every inner bisection is computed
// to full depth, every member's choice is a bool, the fills run on a
// workspace that holds no epoch, the polish re-fills every flip, and the
// outer search probes every verdict before relying on it.

// refSolver solves one instance the literal way. Its workspace is prepared
// for the instance but never bumped, so its fills are plain.
type refSolver struct {
	in *Instance
	ws *solveWorkspace
}

func newRefSolver(in *Instance) *refSolver {
	ws := new(solveWorkspace)
	ws.prepareEquilibrium(in)
	return &refSolver{in: in, ws: ws}
}

// inner is FBS i's band-price bisection at common price l0, iters steps
// deep, returning each member's choice (true = MBS) at the clearing price.
func (r *refSolver) inner(i int, l0 float64, iters int) []bool {
	return r.innerTrace(i, l0, iters).mbs
}

// innerRun is the record of one literal inner bisection: lo[s], hi[s] and
// mid[s] are the bracket at the top of step s and the price it probes, and
// mbs each member's choice at the clearing price li.
type innerRun struct {
	lo, hi, mid []float64
	li          float64
	mbs         []bool
}

// innerTrace is inner with the record of its bisection steps.
func (r *refSolver) innerTrace(i int, l0 float64, iters int) innerRun {
	var run innerRun
	ws := r.ws
	members := ws.byFBS[i]
	v0 := make([]float64, len(members))
	for b, j := range members {
		v0[b], _ = ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
	}
	demand := func(li float64) float64 {
		total := 0.0
		for b, j := range members {
			if v1, rho := ws.u1[j].branchAndRhoWR(li, ws.logW[j], ws.wr1[j], ws.bl1[j]); v1 >= v0[b] {
				total += rho
			}
		}
		return total
	}
	li := eqLambdaFloor
	if demand(li) > 1 {
		hi := 0.0
		for _, j := range members {
			hi += ws.u1[j].ps
		}
		if hi > li {
			for demand(hi) > 1 {
				hi *= 2
			}
			lo := li
			for it := 0; it < iters; it++ {
				mid := 0.5 * (lo + hi)
				run.lo = append(run.lo, lo)
				run.hi = append(run.hi, hi)
				run.mid = append(run.mid, mid)
				if demand(mid) > 1 {
					lo = mid
				} else {
					hi = mid
				}
			}
			li = hi
		}
	}
	run.li = li
	run.mbs = make([]bool, len(members))
	for b, j := range members {
		v1, _ := ws.u1[j].branchAndRhoWR(li, ws.logW[j], ws.wr1[j], ws.bl1[j])
		run.mbs[b] = v0[b] > v1
	}
	return run
}

// demand0 is the MBS demand at common price l0 given every FBS's inner
// equilibrium.
func (r *refSolver) demand0(l0 float64) float64 {
	ws := r.ws
	total := 0.0
	for i := 1; i <= r.in.N(); i++ {
		mbs := r.inner(i, l0, eqIters)
		for b, j := range ws.byFBS[i] {
			if mbs[b] {
				total += ws.u0[j].rhoAtWR(l0, ws.wr0[j])
			}
		}
	}
	return total
}

// solve is enter followed by the literal polish.
func (r *refSolver) solve(warm bool, seed float64) (*Allocation, float64) {
	alloc, l0 := r.enter(warm, seed)
	r.polish(alloc)
	return alloc, l0
}

// enter runs the outer bisection — bracketed around seed when warm, from
// the global bracket otherwise, with the same expansion guard and depths as
// EquilibriumSolver — then fixes the association at the clearing prices and
// water-fills it: the state the solve hands its polish. It returns the
// allocation and the clearing common price (0 when no price clears, the
// trivial case). It probes in the probed order, every verdict before the
// step that relies on it: the floor, the guard, then the warm bracket's
// lower end, which a grown guard probes twice. A warm production solve
// defers the floor and the lower end behind its bisection
// (TestWarmProbeOrderMatchesReference).
func (r *refSolver) enter(warm bool, seed float64) (*Allocation, float64) {
	in := r.in
	exceeds := func(l0 float64) bool { return r.demand0(l0) > 1 }
	l0 := eqLambdaFloor
	trivial := !exceeds(l0)
	if !trivial {
		solved := false
		if warm {
			wlo, whi := math.Max(0.5*seed, eqLambdaFloor), 2*seed
			if whi <= wlo {
				whi = 1
			}
			ok := true
			for guard := 0; exceeds(whi); guard++ {
				if guard >= 60 {
					ok = false
					break
				}
				wlo = whi
				whi *= 2
			}
			if ok {
				for wlo > eqLambdaFloor && !exceeds(wlo) {
					whi = wlo
					wlo *= 0.5
				}
				for it := 0; it < eqIters/2+4; it++ {
					if mid := 0.5 * (wlo + whi); exceeds(mid) {
						wlo = mid
					} else {
						whi = mid
					}
				}
				l0, solved = whi, true
			}
		}
		if !solved {
			lo, hi := eqLambdaFloor, 0.0
			for j := range in.W {
				if in.R0[j] > 0 {
					hi += in.PS0[j]
				}
			}
			if hi <= lo {
				hi = 1
			}
			for exceeds(hi) {
				hi *= 2
			}
			for it := 0; it < eqIters; it++ {
				if mid := 0.5 * (lo + hi); exceeds(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
			l0 = hi
		}
	}
	alloc := NewAllocation(in.K())
	for i := 1; i <= in.N(); i++ {
		mbs := r.inner(i, l0, eqIters)
		for b, j := range r.ws.byFBS[i] {
			alloc.MBS[j] = mbs[b]
		}
	}
	fillResources(in, alloc, r.ws)
	if trivial {
		l0 = 0
	}
	return alloc, l0
}

// polish is the association polish the literal way, without the
// production polish's duality certificate: every round re-fills and
// re-evaluates every flip, and a rejected flip is re-filled back.
func (r *refSolver) polish(alloc *Allocation) {
	in := r.in
	cur := alloc.Objective(in)
	for round := 0; round < 4; round++ {
		improved := false
		for j := range alloc.MBS {
			alloc.MBS[j] = !alloc.MBS[j]
			fillBand(in, alloc, 0, r.ws)
			fillBand(in, alloc, in.FBS[j], r.ws)
			if v := alloc.Objective(in); v > cur+1e-12 {
				cur, improved = v, true
				continue
			}
			alloc.MBS[j] = !alloc.MBS[j]
			fillBand(in, alloc, 0, r.ws)
			fillBand(in, alloc, in.FBS[j], r.ws)
		}
		if !improved {
			return
		}
	}
}

// allocDiff names the first user whose association or share bits differ
// between two allocations, or returns -1.
func allocDiff(a, b *Allocation) int {
	for j := range a.MBS {
		if a.MBS[j] != b.MBS[j] || math.Float64bits(a.Rho0[j]) != math.Float64bits(b.Rho0[j]) ||
			math.Float64bits(a.Rho1[j]) != math.Float64bits(b.Rho1[j]) {
			return j
		}
	}
	return -1
}

// solveWalk drives one long-lived workspace through the solve sequences of
// greedy Allocate calls — an unseeded base solve at G = 0 opening each
// epoch, then seeded trials that perturb one FBS's G_i by a posterior and
// restore it, trials returning to an earlier G_i, accepted pairs that keep
// the epoch, and new base instances with their epoch bump — and checks each
// solve against refSolver bit for bit: every share, the association, the
// base solve's clearing price, and every FBS's inner choices at that price.
// It also holds the polish's certificate to every flip of the state
// the solve hands its polish (certTally.check).
type solveWalk struct {
	t      *testing.T
	s      *rng.Stream
	in     *Instance
	ws     *solveWorkspace
	posts  []float64 // posteriors drawn so far
	seen   []float64 // G_i values tried so far, to return to
	solves int
}

func newSolveWalk(t *testing.T, s *rng.Stream, n, maxMembers int) *solveWalk {
	w := &solveWalk{t: t, s: s, in: certInstance(s, n, maxMembers), ws: new(solveWorkspace)}
	if err := w.in.Validate(); err != nil {
		t.Fatal(err)
	}
	w.newEpoch()
	return w
}

// newEpoch opens a greedy-style epoch on the current base instance: G
// cleared, a fresh epoch, the unseeded base solve, then the price seed.
func (w *solveWalk) newEpoch() {
	for i := range w.in.G {
		w.in.G[i] = 0
	}
	w.ws.eqSeeded = false
	w.ws.bumpEqEpoch()
	w.solve()
	w.ws.eqSeeded = w.ws.eqL0 > 0
}

// posterior draws a channel posterior, one time in three repeating an
// earlier one, as twin channels do.
func (w *solveWalk) posterior() float64 {
	if len(w.posts) > 0 && w.s.IntN(3) == 0 {
		return w.posts[w.s.IntN(len(w.posts))]
	}
	pa := 1 - w.s.Float64()
	w.posts = append(w.posts, pa)
	return pa
}

// solve runs the production solve on the walk's workspace and the
// reference on a fresh one, compares them, and checks the certificate on
// the reference's polish entry state.
func (w *solveWalk) solve() {
	w.solves++
	in := w.in
	warm, seed := w.ws.eqSeeded, w.ws.eqL0
	got := &Allocation{}
	obj, err := (&EquilibriumSolver{}).solveWS(in, got, w.ws, nil)
	if err != nil {
		w.t.Fatalf("solve %d: %v", w.solves, err)
	}
	if plain := got.Objective(in); math.Float64bits(obj) != math.Float64bits(plain) {
		w.t.Fatalf("solve %d: returned objective %v, allocation's objective %v", w.solves, obj, plain)
	}
	ref := newRefSolver(in)
	want, l0 := ref.enter(warm, seed)
	entry := NewAllocation(in.K())
	copy(entry.MBS, want.MBS)
	ref.polish(want)
	if j := allocDiff(got, want); j >= 0 {
		w.t.Fatalf("solve %d (warm=%v, G=%v): user %d: got MBS=%v rho=(%v, %v), reference MBS=%v rho=(%v, %v)",
			w.solves, warm, in.G, j, got.MBS[j], got.Rho0[j], got.Rho1[j], want.MBS[j], want.Rho0[j], want.Rho1[j])
	}
	if !warm && math.Float64bits(w.ws.eqL0) != math.Float64bits(l0) {
		w.t.Fatalf("solve %d (G=%v): clearing common price %v, reference %v", w.solves, in.G, w.ws.eqL0, l0)
	}
	// Agreeing with the literal polish on this state is not enough: the
	// certificate must bound every flip of it.
	var c certTally
	c.check(w.t, fmt.Sprintf("solve %d (warm=%v)", w.solves, warm), in, entry, ref.ws)
	if l0 == 0 {
		return
	}
	for i := 1; i <= in.N(); i++ {
		mask := w.ws.equilibriumFBS(in, i, l0, eqIters)
		mbs := ref.inner(i, l0, eqIters)
		for b := range mbs {
			if w.ws.prefersMBS(mask, b) != mbs[b] {
				w.t.Fatalf("solve %d: FBS %d member %d: MBS choice %v, reference %v", w.solves, i, b, !mbs[b], mbs[b])
			}
		}
	}
}

// step performs one random greedy-style episode.
func (w *solveWalk) step() {
	s, in := w.s, w.in
	i := s.IntN(in.N())
	switch s.IntN(8) {
	case 0: // new base instance: a new epoch
		for j := range in.W {
			in.W[j] = 25 + 15*s.Float64()
		}
		w.newEpoch()
	case 1: // accept a pair: G_i grows for the rest of the epoch
		in.G[i] += w.posterior()
		w.solve()
	default: // a Q evaluation: G_i perturbed, solved, restored
		base := in.G[i]
		if len(w.seen) > 0 && s.IntN(4) == 0 {
			in.G[i] = w.seen[s.IntN(len(w.seen))]
		} else {
			in.G[i] += w.posterior()
			w.seen = append(w.seen, in.G[i])
		}
		w.solve()
		in.G[i] = base
	}
}

// TestEquilibriumSolveMatchesReference is the bitwise oracle for the
// solve's shortcuts together — both demand bounds, the inner exit, the
// inner memo levels, the water-fill memo and the polish's certificate — on random instances
// with 1-40 members per FBS (past 64 users the fill memo is off), WMax caps
// (some binding below a full share), zero ps/r members and qualities near 1
// (certInstance).
func TestEquilibriumSolveMatchesReference(t *testing.T) {
	seeds := 24
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		s := rng.New(uint64(7000 + seed))
		maxMembers := []int{1, 3, 8, 20, 40}[seed%5]
		w := newSolveWalk(t, s, 1+s.IntN(3), maxMembers)
		for e := 0; e < 16; e++ {
			w.step()
		}
	}
}

// FuzzEquilibriumSolve is TestEquilibriumSolveMatchesReference over fuzzed
// seeds, shapes and walk lengths.
func FuzzEquilibriumSolve(f *testing.F) {
	// seed, FBSs, max members per FBS, episodes.
	f.Add(uint64(1), uint8(1), uint8(3), uint8(12))
	f.Add(uint64(2), uint8(3), uint8(20), uint8(8))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(16))
	f.Add(uint64(4), uint8(4), uint8(12), uint8(10))
	f.Add(uint64(1), uint8(1), uint8(15), uint8(18))
	f.Fuzz(func(t *testing.T, seed uint64, nFBS, maxMembers, episodes uint8) {
		if nFBS < 1 || nFBS > 4 || maxMembers < 1 || maxMembers > 40 || episodes > 24 {
			return
		}
		w := newSolveWalk(t, rng.New(seed), int(nFBS), int(maxMembers))
		for e := 0; e < int(episodes); e++ {
			w.step()
		}
	})
}

// TestEquilibriumWideFBSChoices: an FBS of more than 64 members overflows
// the inner bisection's uint64 choice mask, so members 64 and up are
// carried in a separate column. Every member's reported choice must be the
// reference's, and the full solve must match the reference.
func TestEquilibriumWideFBSChoices(t *testing.T) {
	s := rng.New(64)
	const k = 100
	in := &Instance{G: []float64{2.5}}
	for j := 0; j < k; j++ {
		in.W = append(in.W, 25+15*s.Float64())
		in.FBS = append(in.FBS, 1)
		// Odd members favour the MBS: a strong common channel against a
		// weak, lossy FBS link; even ones the reverse.
		if j%2 == 1 {
			in.R0 = append(in.R0, 0.4+0.1*s.Float64())
			in.PS0 = append(in.PS0, 0.9+0.1*s.Float64())
			in.R1 = append(in.R1, 0.05*s.Float64())
			in.PS1 = append(in.PS1, 0.3*s.Float64())
		} else {
			in.R0 = append(in.R0, 0.05*s.Float64())
			in.PS0 = append(in.PS0, 0.3*s.Float64())
			in.R1 = append(in.R1, 0.4+0.1*s.Float64())
			in.PS1 = append(in.PS1, 0.9+0.1*s.Float64())
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	ws := new(solveWorkspace)
	ws.prepareEquilibrium(in)
	ref := newRefSolver(in)
	_, l0 := ref.solve(false, 0)
	wideMBS := 0
	for _, p := range []float64{l0, 0.5 * l0, 2 * l0, 1e-3, 1e-1} {
		mask := ws.equilibriumFBS(in, 1, p, eqIters)
		for b, want := range ref.inner(1, p, eqIters) {
			if got := ws.prefersMBS(mask, b); got != want {
				t.Fatalf("l0=%v member %d: prefersMBS %v, reference %v", p, b, got, want)
			}
			if b >= 64 && want {
				wideMBS++
			}
		}
	}
	if wideMBS == 0 {
		t.Fatal("no member past 63 prefers the MBS: the instance does not exercise the wide column")
	}
	got := &Allocation{}
	if err := (&EquilibriumSolver{}).SolveInto(in, got); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.solve(false, 0)
	if j := allocDiff(got, want); j >= 0 {
		t.Fatalf("user %d: got MBS=%v rho=(%v, %v), reference MBS=%v rho=(%v, %v)",
			j, got.MBS[j], got.Rho0[j], got.Rho1[j], want.MBS[j], want.Rho0[j], want.Rho1[j])
	}
}

// TestOuterBoundBracket: the outer demand bound's verdict is monotone in
// the common price and reads no G, so within an epoch the bracket of its
// earlier verdicts decides later probes without its sum. One greedy-style
// walk, held to the reference on every solve, must decide probes from both
// ends of the bracket, and a new epoch must start with an empty one.
func TestOuterBoundBracket(t *testing.T) {
	w := newSolveWalk(t, rng.New(7100), 3, 8)
	for e := 0; e < 16; e++ {
		w.step()
	}
	t.Logf("%d solves: %d probes decided at or above boundFit, %d at or below boundOver",
		w.solves, w.ws.outerFit, w.ws.outerOver)
	if w.ws.outerFit == 0 || w.ws.outerOver == 0 {
		t.Fatalf("bracket ends decided %d (fit) and %d (over) probes; want both", w.ws.outerFit, w.ws.outerOver)
	}
	w.ws.bumpEqEpoch()
	w.ws.prepareEquilibrium(w.in)
	if w.ws.boundOver != 0 || !math.IsInf(w.ws.boundFit, 1) {
		t.Fatalf("new epoch starts with bracket (%v, %v)", w.ws.boundOver, w.ws.boundFit)
	}
}

// TestPrepareEquilibriumRefresh: within a live epoch prepareEquilibrium
// refreshes only the band views, which read G. After every G change of a
// greedy-style sequence, every per-user column and member list must equal
// a fresh workspace's full preparation, bit for bit.
func TestPrepareEquilibriumRefresh(t *testing.T) {
	s := rng.New(7200)
	for trial := 0; trial < 20; trial++ {
		in := certInstance(s, 1+s.IntN(4), 1+s.IntN(10))
		ws := new(solveWorkspace)
		ws.bumpEqEpoch()
		for step := 0; step < 8; step++ {
			if step > 0 {
				in.G[s.IntN(in.N())] = 3 * s.Float64()
			}
			ws.prepareEquilibrium(in)
			fresh := new(solveWorkspace)
			fresh.prepareEquilibrium(in)
			for j := 0; j < in.K(); j++ {
				if ws.u0[j] != fresh.u0[j] || ws.u1[j] != fresh.u1[j] {
					t.Fatalf("trial %d step %d user %d: views %+v %+v, fresh %+v %+v",
						trial, step, j, ws.u0[j], ws.u1[j], fresh.u0[j], fresh.u1[j])
				}
				for _, col := range [][2][]float64{
					{ws.logW, fresh.logW}, {ws.wr0, fresh.wr0}, {ws.wr1, fresh.wr1},
					{ws.bl0, fresh.bl0}, {ws.bl1, fresh.bl1},
				} {
					if math.Float64bits(col[0][j]) != math.Float64bits(col[1][j]) {
						t.Fatalf("trial %d step %d user %d: cached column %v, fresh %v", trial, step, j, col[0][j], col[1][j])
					}
				}
			}
			if fmt.Sprint(ws.byFBS) != fmt.Sprint(fresh.byFBS) {
				t.Fatalf("trial %d step %d: members %v, fresh %v", trial, step, ws.byFBS, fresh.byFBS)
			}
		}
	}
}
