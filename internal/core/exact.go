package core

import (
	"fmt"
	"math"
)

// BruteForceSolver finds the global optimum of the per-slot problem by
// enumerating all binary base-station associations (optimal by Theorem 1)
// and exactly water-filling every resource for each association. It is
// exponential in the number of users and intended as the ground-truth
// reference for tests, small scenarios, and the optimality-gap experiments;
// SolveInto refuses instances of more than bruteForceMaxUsers users.
type BruteForceSolver struct{}

// bruteForceMaxUsers guards BruteForceSolver against accidental
// exponential blow-ups.
const bruteForceMaxUsers = 20

var _ Solver = (*BruteForceSolver)(nil)

// SolveInto enumerates associations and writes the best allocation into a
// caller-owned one.
//
//femtovet:borrows in, best
func (*BruteForceSolver) SolveInto(in *Instance, best *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	k := in.K()
	if k > bruteForceMaxUsers {
		return fmt.Errorf("%w: %d users exceeds brute-force limit %d", ErrNoSolution, k, bruteForceMaxUsers)
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.prepareUsers(in)
	bestVal := math.Inf(-1)
	best.resize(k)
	alloc := &ws.qAlloc
	alloc.resize(k)
	for mask := 0; mask < 1<<k; mask++ {
		for j := 0; j < k; j++ {
			alloc.MBS[j] = mask&(1<<j) != 0
			alloc.Rho0[j] = 0
			alloc.Rho1[j] = 0
		}
		fillResources(in, alloc, ws)
		if v := alloc.ObjectiveLogW(in, ws.logW); v > bestVal {
			bestVal = v
			copy(best.MBS, alloc.MBS)
			copy(best.Rho0, alloc.Rho0)
			copy(best.Rho1, alloc.Rho1)
		}
	}
	return nil
}

// EquilibriumSolver computes a near-exact solution in polynomial time by a
// nested price search: an outer bisection on the common-channel price
// lambda_0 and, for each candidate, an inner bisection per FBS on its band
// price lambda_i. Users pick the base station with the better Lagrangian
// branch value at the prices (Theorem 1), each user's shares are monotone
// in each price (MBS demand as a whole need not be; see solveWS), and the
// final association is repaired by exact water-filling.
//
// It is the default Q(c) evaluator inside the greedy channel allocator,
// where the brute-force reference would be exponential.
type EquilibriumSolver struct{}

// eqIters is the depth of both of EquilibriumSolver's bisections.
const eqIters = 45

var _ Solver = (*EquilibriumSolver)(nil)

// SolveInto solves the slot's problem into a caller-owned allocation: the
// cold path, SolveWarmInto without a session.
//
//femtovet:borrows in, out
func (e *EquilibriumSolver) SolveInto(in *Instance, out *Allocation) error {
	_, err := e.SolveWarmInto(in, out, nil)
	return err
}

// SolveWarmInto is SolveInto seeded from a cross-slot session: when sess
// carries the previous slot's outer common price for an instance of the
// same shape, the outer bisection brackets around it ([l0/2, 2*l0], grown
// outward as needed) at roughly half the cold bisection depth, instead of
// expanding from the global [floor, sum(ps)] bracket, and it probes the
// price floor only if no bisection probe exceeds the budget. A nil session
// degrades to the cold path; shape changes and a runaway bracket expansion
// re-cold-start automatically. A non-nil session also records the solve's
// outer probe count. See SolverSession.
//
// It returns the objective of the allocation it writes, out.Objective(in)
// bit for bit: the polish sums it on the way (see polishAssociation).
//
//femtovet:borrows in, out, sess
func (e *EquilibriumSolver) SolveWarmInto(in *Instance, out *Allocation, sess *SolverSession) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	// A pooled workspace may carry another instance's equilibrium memo;
	// start a fresh epoch so no stale entry can hit.
	ws.bumpEqEpoch()
	return e.solveWS(in, out, ws, sess)
}

// solveWS is the full equilibrium solve on a caller-held workspace
// with an optional cross-slot session, returning the objective of the
// allocation it leaves (ObjectiveLogW's value, bit for bit; see
// polishAssociation). The outer price seed comes from the
// session when one is given, else from the workspace (eqL0 while eqSeeded,
// set by the greedy allocator); with neither it is the cold path.
//
// The greedy channel allocator calls it with its own workspace and no
// session, so the per-FBS equilibrium memo survives across its many Q
// evaluations of the same base instance; such a caller is responsible for
// bumpEqEpoch whenever the base instance (anything but G) changes, and for
// the workspace price seed.
//
//femtovet:borrows in, alloc, ws, sess
func (e *EquilibriumSolver) solveWS(in *Instance, alloc *Allocation, ws *solveWorkspace, sess *SolverSession) (float64, error) {
	k := in.K()

	ws.prepareEquilibrium(in)
	u0, wr0 := ws.u0, ws.wr0
	sum0PS := 0.0
	for j := 0; j < k; j++ {
		if in.R0[j] > 0 {
			sum0PS += in.PS0[j]
		}
	}
	byFBS := ws.byFBS

	// Outer bisection on lambda_0. Every user's MBS share is non-increasing
	// in it, and so is the bound below, but MBS demand is not in general: a
	// higher common price can swap an FBS's users between base stations so
	// that the MBS gains demand (TestOuterDemandNotMonotone). The searches
	// below assume it is monotone — a bracket whose lower end exceeds the
	// budget and whose upper end fits holds a clearing price, and a probe
	// that exceeds implies that every lower price does — so where it is
	// not, two brackets can clear at different prices. The warm == cold
	// and reference oracles check that the polished allocations agree.
	//
	// outerProbes counts the exceeds0 evaluations of one solve — each one
	// that the bound below does not decide walks every FBS's inner
	// equilibrium — and is the "iterations" a session records for this
	// solver.
	//
	// Every probe only asks whether MBS demand exceeds the unit budget, so
	// each first sums the MBS shares of all users, in the order of the
	// demand sum proper. That sum adds a subsequence of the same
	// nonnegative terms, and rounded addition is monotone, so it never
	// exceeds the bound: a bound within budget decides the probe without a
	// single inner equilibrium (DESIGN §9).
	//
	// The bound reads neither G nor any inner result, only the common
	// channel's views in a fixed order, through rounded division,
	// subtraction, clamps and addition, all monotone: its verdict is
	// non-increasing in l0 and fixed for the prepared instance. So the
	// bracket (boundOver, boundFit) of the epoch's earlier verdicts
	// decides every probe outside it without the sum — a probe at or above
	// boundFit fits the budget, and one at or below boundOver goes
	// straight to the inner equilibria.
	outerProbes := 0
	exceeds0 := func(l0 float64) bool {
		outerProbes++
		if l0 >= ws.boundFit {
			ws.outerFit++
			return false
		}
		if l0 > ws.boundOver {
			bound := 0.0
		bounding:
			for i := 1; i <= in.N(); i++ {
				for _, j := range byFBS[i] {
					if bound += u0[j].rhoAtWR(l0, wr0[j]); bound > 1 {
						break bounding
					}
				}
			}
			if bound <= 1 {
				ws.boundFit = l0
				return false
			}
			if bound > 1 { // a NaN bound records nothing
				ws.boundOver = l0
			}
		} else {
			ws.outerOver++
		}
		total := 0.0
		for i := 1; i <= in.N(); i++ {
			mask := ws.equilibriumFBS(in, i, l0, eqIters)
			for b, j := range byFBS[i] {
				if ws.prefersMBS(mask, b) {
					total += u0[j].rhoAtWR(l0, wr0[j])
					if total > 1 {
						return true
					}
				}
			}
		}
		return false
	}

	// bisect runs the warm bisection of [wlo, whi], half the cold depth plus
	// four steps, and returns the bracket's final upper end and whether any
	// of its probes exceeded the budget. The upper end is the clearing
	// price when wlo exceeds the budget and whi does not.
	bisect := func(wlo, whi float64) (float64, bool) {
		over := false
		for it := 0; it < eqIters/2+4; it++ {
			mid := 0.5 * (wlo + whi)
			if exceeds0(mid) {
				wlo, over = mid, true
			} else {
				whi = mid
			}
		}
		return whi, over
	}
	// A warm solve defers the floor probe, which decides whether the slot
	// is contended at all, behind its bisection: most warm slots are
	// contended, and under monotone demand any probe that exceeds the
	// budget proves that the floor does too. A cold solve probes the floor
	// first.
	warm, seed := ws.eqSeeded, ws.eqL0
	if sess != nil {
		sess.observe(in)
		warm, seed = sess.haveL0, sess.l0
	}
	l0 := eqLambdaFloor
	trivial := !warm && !exceeds0(l0)
	solved := trivial
	if warm {
		// Warm bracket around the seed price (the previous slot's, or the
		// greedy base solve's): under the Markov channel correlation it
		// rarely moves by more than 2x, so [l0/2, 2*l0] usually brackets
		// and half the cold depth resolves it to comparable relative
		// precision. The expansion guard trips when the seed is far off
		// (correlation assumption failed) and falls back to the cold
		// global bracket.
		wlo := 0.5 * seed
		if wlo < eqLambdaFloor {
			wlo = eqLambdaFloor
		}
		whi := 2 * seed
		if whi <= wlo {
			whi = 1
		}
		ok, grown := true, false
		for guard := 0; exceeds0(whi); guard++ {
			if guard >= 60 {
				ok = false
				break
			}
			wlo, whi, grown = whi, 2*whi, true
		}
		// The bisection needs exceeds0(wlo) && !exceeds0(whi), like the
		// cold bracket. The guard leaves whi within budget, and a grown
		// bracket's wlo is the guard probe before it, which exceeded.
		// Otherwise wlo is unprobed, and the solve bisects first: a probe
		// that exceeds implies, under monotone demand, that wlo and the
		// floor exceed too, so probing them first would have bisected the
		// same bracket to the same price. Only if none exceeds does it
		// probe the floor: the slot is slack, or its clearing price is at
		// or below wlo, found by halving wlo while it fits and bisecting
		// the bracket that leaves.
		solved = ok
		switch {
		case !ok:
			if sess != nil {
				sess.stats.Restarts++
			}
		case grown:
			l0, _ = bisect(wlo, whi)
		default:
			var over bool
			if l0, over = bisect(wlo, whi); !over {
				if !exceeds0(eqLambdaFloor) {
					l0, trivial = eqLambdaFloor, true
				} else {
					for wlo > eqLambdaFloor && !exceeds0(wlo) {
						whi = wlo
						wlo *= 0.5
					}
					l0, _ = bisect(wlo, whi)
				}
			}
		}
	}
	if !solved {
		lo, hi := eqLambdaFloor, sum0PS
		if hi <= lo {
			hi = 1
		}
		for exceeds0(hi) {
			hi *= 2
		}
		for it := 0; it < eqIters; it++ {
			mid := 0.5 * (lo + hi)
			if exceeds0(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		l0 = hi
	}
	if sess != nil {
		if trivial {
			// A slack slot: keep the carried price — it is still the best
			// guess for the next contended slot.
			sess.note(0, false, true)
		} else {
			sess.l0 = l0
			sess.haveL0 = true
			sess.note(outerProbes, warm, false)
		}
	}
	if !ws.eqSeeded {
		ws.eqL0 = 0
		if !trivial {
			ws.eqL0 = l0
		}
	}

	// Fix the association at the equilibrium prices, then water-fill.
	alloc.resize(k)
	for i := 1; i <= in.N(); i++ {
		mask := ws.equilibriumFBS(in, i, l0, eqIters)
		for b, j := range byFBS[i] {
			alloc.MBS[j] = ws.prefersMBS(mask, b)
		}
	}
	fillResources(in, alloc, ws)
	obj := polishAssociation(in, alloc, 4, ws)
	if err := feasibleCached(in, alloc, ws, 1e-9); err != nil {
		return 0, fmt.Errorf("equilibrium solver produced infeasible allocation: %w", err)
	}
	return obj, nil
}

// eqLambdaFloor is the lowest price either bisection of the equilibrium
// solver probes.
const eqLambdaFloor = 1e-15

// equilibriumFBS returns each member's choice at the price of FBS i's band
// that clears its unit budget given the common-channel price l0, as a
// bitmask: bit b set = member b of byFBS[i] prefers the MBS (read it with
// prefersMBS, which also covers members past 63). The band price itself is
// bisected, but only as far as the choices need it. Demand is
// non-increasing in the band price: shares shrink and users defect to the
// MBS as it rises. The workspace must be prepared for in
// (prepareEquilibrium).
//
// The mask is a pure function of (i, l0, G_i) for a fixed base instance,
// and it is memoized at two levels, both only while the workspace holds a
// live epoch (bumpEqEpoch) and the FBS has at most 64 members:
//
//   - the exact table keyed by (i, l0, G_i) bits, which answers repeats
//     without a single math.Log — the greedy allocator's Q evaluations
//     perturb G at one FBS per candidate and replay the same leading outer
//     probes, so every other FBS is answered from it;
//   - a per-FBS window memo. The inner bisection reads l0 only through the
//     comparisons bv >= gV0[b] between each member's FBS branch value and
//     its MBS branch value at l0, and through the thresholds that settle a
//     member over a bracket (innerExit). Each miss records, per member, the
//     window (lo, hi] of gV0[b] values that decide every comparison it made
//     and its settlement the same way; a later l0 whose gV0 lands inside
//     every member's window replays the same comparisons, so the same
//     bisection branches, and the same mask, bit for bit.
//
// Demand totals are only ever compared against the unit budget, so each
// probe first sums every member's share regardless of its choice, without a
// branch value: the demand is a subsequence of the same nonnegative terms in
// the same order, so a bound within budget decides the probe (see solveWS).
// The bound never reads gV0, so the probes it decides make no comparison
// and leave the windows unconstrained. Likewise the accumulation loops exit
// as soon as the partial sum crosses the budget: the remaining terms cannot
// bring it back, and members past the exit make no comparison either.
//
// From bracket step innerExitStep on, the bisection stops as soon as
// innerExit proves the mask that its full depth would end on.
func (ws *solveWorkspace) equilibriumFBS(in *Instance, i int, l0 float64, iters int) uint64 {
	members := ws.byFBS[i]
	gi := in.G[i-1]
	memoable := len(members) <= 64 && ws.memoLive
	if memoable {
		if mask, ok := ws.eqMemoGet(i, l0, gi); ok {
			return mask
		}
	}
	m := len(members)
	ws.gV0 = growF(ws.gV0, m)
	gV0 := ws.gV0
	last := &ws.eqLast[i]
	hit := memoable && last.epoch == ws.eqEpoch && last.g == math.Float64bits(gi)
	for b, j := range members {
		v, _ := ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
		gV0[b] = v
		w := &ws.eqWin[j]
		hit = hit && w.lo < v && v <= w.hi
	}
	if hit {
		// Promote the hit into the exact table: the greedy's next Q
		// evaluation replays this probe and then skips the gV0 logs.
		ws.eqMemoPut(i, l0, gi, last.mask)
		return last.mask
	}

	ws.gatherFBS(members)
	gU, gLogW, gWR, gBL, gLo, gHi, gSt := ws.gU, ws.gLogW, ws.gWR, ws.gBL, ws.gLo, ws.gHi, ws.gSt
	// exceeds leaves the branch values it computed in gBP (NaN for the
	// rest), and the caller keeps them as a bracket end's by swapping
	// columns.
	exceeds := func(li float64) bool {
		bvs := ws.gBP
		for b := range bvs {
			bvs[b] = math.NaN()
		}
		bound := 0.0
		for b := range gU {
			if bound += gU[b].rhoAtWR(li, gWR[b]); bound > 1 {
				break
			}
		}
		if bound <= 1 {
			return false
		}
		total := 0.0
		for b := range gU {
			bv, rho := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
			bvs[b] = bv
			if bv >= gV0[b] {
				if bv < gHi[b] {
					gHi[b] = bv
				}
				total += rho
				if total > 1 {
					return true
				}
			} else if bv > gLo[b] {
				gLo[b] = bv
			}
		}
		return false
	}
	li := eqLambdaFloor
	decided := false
	if exceeds(li) {
		ws.gBLo, ws.gBP = ws.gBP, ws.gBLo
		hi := 0.0
		for b := range gU {
			hi += gU[b].ps
		}
		if hi > li {
			for exceeds(hi) {
				hi *= 2
			}
			ws.gBHi, ws.gBP = ws.gBP, ws.gBHi
			lo := li
			for it := 0; it < iters; it++ {
				if it >= innerExitStep && ws.innerExit(lo, hi) {
					decided = true
					break
				}
				mid := 0.5 * (lo + hi)
				if exceeds(mid) {
					lo = mid
					ws.gBLo, ws.gBP = ws.gBP, ws.gBLo
				} else {
					hi = mid
					ws.gBHi, ws.gBP = ws.gBP, ws.gBHi
				}
			}
			li = hi
		}
	}
	var mask uint64
	if m > 64 {
		ws.eqWide = growB(ws.eqWide, m)
	}
	for b := range gU {
		mbs := gSt[b] == eqDefect
		if !decided && gSt[b] == eqOpen {
			bv, _ := gU[b].branchAndRhoWR(li, gLogW[b], gWR[b], gBL[b])
			mbs = gV0[b] > bv
			if mbs {
				if bv > gLo[b] {
					gLo[b] = bv
				}
			} else if bv < gHi[b] {
				gHi[b] = bv
			}
		}
		if mbs {
			mask |= 1 << uint(b) // no-op past bit 63: eqWide holds those
		}
		if b >= 64 {
			ws.eqWide[b] = mbs
		}
	}
	if memoable {
		ws.eqMemoPut(i, l0, gi, mask)
		*last = eqLastEntry{g: math.Float64bits(gi), mask: mask, epoch: ws.eqEpoch}
		for b, j := range members {
			ws.eqWin[j] = eqWindow{lo: gLo[b], hi: gHi[b]}
		}
	}
	return mask
}

// gatherFBS gathers the FBS-band columns of an inner bisection's members
// once per miss: the demand probes then walk contiguous copies instead of
// chasing member indices through the per-user columns. Same values, same
// member order, same operations — bit-identical. Every member starts open,
// with an unconstrained window.
func (ws *solveWorkspace) gatherFBS(members []int) {
	m := len(members)
	ws.gU = growU(ws.gU, m)
	ws.gLogW = growF(ws.gLogW, m)
	ws.gWR = growF(ws.gWR, m)
	ws.gBL = growF(ws.gBL, m)
	ws.gLo = growF(ws.gLo, m)
	ws.gHi = growF(ws.gHi, m)
	ws.gSt = growI8(ws.gSt, m)
	ws.gBLo = growF(ws.gBLo, m)
	ws.gBHi = growF(ws.gBHi, m)
	ws.gBP = growF(ws.gBP, m)
	for b, j := range members {
		ws.gU[b] = ws.u1[j]
		ws.gLogW[b] = ws.logW[j]
		ws.gWR[b] = ws.wr1[j]
		ws.gBL[b] = ws.bl1[j]
		ws.gLo[b] = math.Inf(-1)
		ws.gHi[b] = math.Inf(1)
		ws.gSt[b] = eqOpen
	}
}

// A member's settlement state over an inner bisection's bracket: undecided,
// on its FBS at every price of the bracket, or on the MBS at every price.
const (
	eqOpen int8 = iota
	eqKeep
	eqDefect
)

// innerExitStep is the first bracket step at which equilibriumFBS asks
// innerExit whether its mask is decided. Checked from step 0, no exit came
// before step 6 on femtosim's interfering, single-FBS and metro scenarios,
// while the checks' on-demand branch values tripled: perfbench
// paper-interfering gained 1.24x over the full-depth bisection, against
// 1.36x when checking from step 8 (medians of three alternating 8 s runs).
const innerExitStep = 8

// innerMargin scales cornerError into the margin that settles a member
// whose share is neither zero nor capped: 2 for the branch values' errors
// at a bracket end and at the price in between, and 1/6 of it for the
// rounding of the threshold fl(bv ± margin), with room for the margin's own
// rounding (DESIGN §9).
const innerMargin = 2.25

// innerExit reports whether the mask of the inner bisection is decided
// over its current bracket (lo, hi]: the bisection, run to full depth, ends
// on a price of the bracket that does not exceed the budget, and the mask
// is each member's choice there. It settles the open members it can
// (settle), narrowing each settled member's window to its deciding
// threshold, and stops at the second member it cannot settle. When every
// member is settled the mask is decided. When one member is left, it must
// defect if the kept members' shares at hi with its own, summed in member
// order, exceed the budget: shares and their rounded partial sums are
// non-increasing in the price, so with it kept every price of the bracket
// would exceed the budget, and the bisection ends on one that does not.
// Its window is not narrowed: that rule never reads its gV0.
func (ws *solveWorkspace) innerExit(lo, hi float64) bool {
	open := -1
	for b, st := range ws.gSt {
		if st != eqOpen {
			continue
		}
		st, t := ws.settle(b, lo, hi)
		switch st {
		case eqKeep:
			ws.gHi[b] = min(ws.gHi[b], t)
		case eqDefect:
			ws.gLo[b] = max(ws.gLo[b], t)
		default:
			if open >= 0 {
				return false
			}
			open = b
			continue
		}
		ws.gSt[b] = st
	}
	if open < 0 {
		return true
	}
	total := 0.0
	for b, u := range ws.gU {
		if ws.gSt[b] != eqKeep && b != open {
			continue
		}
		if total += u.rhoAtWR(hi, ws.gWR[b]); total > 1 {
			ws.gSt[open] = eqDefect
			return true
		}
	}
	return false
}

// settle decides member b's choice at every price of the bracket (lo, hi]
// when its branch values there allow it: eqKeep when its FBS branch value
// stays at or above every MBS branch value up to t, eqDefect when it stays
// at or below t, so that every MBS branch value above t wins; eqOpen
// otherwise. Shares are non-increasing in the price under rounding, so:
//
//   - a zero share at lo stays zero, and the branch value is bl exactly;
//   - a share capped at hi stays capped below it, and the branch value is
//     fl(C − λ·cap) with C fixed, exactly non-increasing in λ, so its
//     values at the ends bound it;
//   - otherwise the exact supremum of the member's Lagrangian is
//     non-increasing in λ and each branch value lies within cornerError of
//     it, so the ends' values bound it within innerMargin·cornerError.
//
// The ends' branch values come from the probes that set them, or are
// computed on demand into gBLo and gBHi.
func (ws *solveWorkspace) settle(b int, lo, hi float64) (int8, float64) {
	u, wr, v0 := ws.gU[b], ws.gWR[b], ws.gV0[b]
	rhoLo := u.rhoAtWR(lo, wr)
	if rhoLo == 0 {
		bl := ws.gBL[b]
		if v0 > bl {
			return eqDefect, bl
		}
		return eqKeep, bl
	}
	// A share never exceeds its cap, so one below it at hi is not capped.
	margin := 0.0
	if u.cap < 0 || u.rhoAtWR(hi, wr) < u.cap {
		margin = innerMargin * u.cornerError(lo, hi, wr, rhoLo, math.Abs(ws.gLogW[b])+1)
	}
	if t := ws.branchAt(b, hi, ws.gBHi) - margin; v0 <= t {
		return eqKeep, t
	}
	if t := ws.branchAt(b, lo, ws.gBLo) + margin; v0 > t {
		return eqDefect, t
	}
	return eqOpen, 0
}

// branchAt returns member b's FBS branch value at price li from the column
// col of values at li, computing and storing it there when missing (NaN).
func (ws *solveWorkspace) branchAt(b int, li float64, col []float64) float64 {
	if math.IsNaN(col[b]) {
		col[b], _ = ws.gU[b].branchAndRhoWR(li, ws.gLogW[b], ws.gWR[b], ws.gBL[b])
	}
	return col[b]
}

// cornerError bounds branchError at every price of [lo, hi] for a user
// whose share at lo is rhoLo, given a >= |log w| + 1: branchError's terms
// taken at the bracket's worst corners — the largest share rhoLo, the
// largest price hi in the evaluation and slope terms, and the smallest
// price lo in the share's rounding.
func (v waterfillUser) cornerError(lo, hi, wr, rhoLo, a float64) float64 {
	const u = unitRoundoff
	capErr := 0.0
	if v.cap >= 0 && !math.IsInf(v.cap, 1) {
		capErr = 2 * u * v.cap
	}
	return u*(9*a+6*rhoLo*(v.r/v.w+hi)) + (v.ps*v.r/v.w+hi)*(3*u*(v.ps/lo+wr)+capErr)
}

// prefersMBS reports member b's choice in the mask of the FBS's latest
// equilibriumFBS call: its bit for the first 64 members, and past them the
// eqWide column, which that call filled (the FBS's mask then describes only
// its first 64 members, and the FBS is never memoized).
func (ws *solveWorkspace) prefersMBS(mask uint64, b int) bool {
	if b < 64 {
		return mask&(1<<uint(b)) != 0
	}
	return ws.eqWide[b]
}
