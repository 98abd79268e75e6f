package core

import (
	"fmt"
	"math"
)

// DualSolver implements the paper's distributed dual-decomposition algorithm
// (Table I for one FBS, Table II for several): each CR user solves its local
// subproblem (14) in closed form for the current prices, picks the better
// base station (Theorem 1 makes the optimal association binary), and the MBS
// updates the dual variables by projected subgradient, eqs. (16), (18)-(19).
//
// After the dual loop, the solver fixes the association from the final
// prices and water-fills each resource exactly, which guarantees a feasible
// allocation even when the subgradient iteration was stopped early.
type DualSolver struct {
	stepScale   float64 // step size s as a fraction of each resource's price scale
	phi         float64 // termination threshold on squared dual movement
	maxIter     int
	diminishing bool        // s_tau = s/sqrt(1+tau)
	report      *DualReport // non-nil: every solve fills it (WithTrace)
	lambdaMin   float64
}

var _ Solver = (*DualSolver)(nil)

// DualOption configures a DualSolver.
type DualOption func(*DualSolver)

// WithStepScale sets the step size s of Table I step 9 as a fraction of
// each resource's estimated price magnitude (default 0.1). Smaller
// fractions converge more slowly but trace the paper's long Fig. 4(a)
// trajectories.
func WithStepScale(f float64) DualOption { return func(d *DualSolver) { d.stepScale = f } }

// WithPhi sets the termination threshold phi of Table I step 11.
func WithPhi(phi float64) DualOption { return func(d *DualSolver) { d.phi = phi } }

// WithMaxIter caps the subgradient iterations.
func WithMaxIter(n int) DualOption { return func(d *DualSolver) { d.maxIter = n } }

// WithConstantStep disables the diminishing step-size schedule, running the
// plain constant-step subgradient of the paper.
func WithConstantStep() DualOption { return func(d *DualSolver) { d.diminishing = false } }

// WithTrace makes every solve fill r with its dual-iteration diagnostics:
// the final prices, the iteration count, and the per-iteration price
// trajectory (Fig. 4(a)). Each solve overwrites r. A tracing solver writes
// to one caller-owned report, so it is a single-owner diagnostic, not safe
// for concurrent use.
func WithTrace(r *DualReport) DualOption { return func(d *DualSolver) { d.report = r } }

// NewDualSolver builds the solver with sensible defaults: steps of 0.1 of
// each resource's price scale, phi = 1e-14, 2000 iteration cap, diminishing
// steps.
func NewDualSolver(opts ...DualOption) *DualSolver {
	d := &DualSolver{
		stepScale:   0.1,
		phi:         1e-14,
		maxIter:     2000,
		diminishing: true,
		lambdaMin:   1e-12,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// DualReport carries diagnostics of one solve (see WithTrace): the final
// prices [lambda_0, lambda_1..lambda_N], the number of subgradient
// iterations, and the per-iteration price trajectory.
type DualReport struct {
	Lambda     []float64
	Iterations int
	Converged  bool
	Trace      [][]float64
}

// captureTrace appends a snapshot of the current prices to the trajectory.
//
//femtovet:borrows lambda
func (r *DualReport) captureTrace(lambda []float64) {
	r.Trace = append(r.Trace, append([]float64(nil), lambda...))
}

// captureLambda copies the final prices into the report.
//
//femtovet:borrows lambda
func (r *DualReport) captureLambda(lambda []float64) {
	r.Lambda = append([]float64(nil), lambda...)
}

// SolveInto runs the subgradient iteration from prices above the target
// (Fig. 4(a)) and writes the repaired allocation into a caller-owned one.
//
//femtovet:borrows in, out
func (d *DualSolver) SolveInto(in *Instance, out *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	report := d.report
	if report != nil {
		*report = DualReport{}
	}
	ws := getWorkspace()
	defer putWorkspace(ws)

	k, n := in.K(), in.N()
	nRes := n + 1 // resource 0 is the common channel, 1..N the FBS bands
	ws.prepareUsers(in)

	// Per-resource price scale estimates used for auto step sizing and
	// initialization: lambda* ~ sum(ps) / (1 + sum(w/r)) from the
	// water-filling KKT conditions.
	scale := growF(ws.scale, nRes)
	ws.scale = scale
	{
		sumPS := growF(ws.sumPS, nRes)
		ws.sumPS = sumPS
		sumWR := growF(ws.sumWR, nRes)
		ws.sumWR = sumWR
		for i := 0; i < nRes; i++ {
			sumPS[i] = 0
			sumWR[i] = 0
		}
		for j := 0; j < k; j++ {
			if in.R0[j] > 0 {
				sumPS[0] += in.PS0[j]
				sumWR[0] += in.W[j] / in.R0[j]
			}
			if r := in.effR1(j); r > 0 {
				i := in.FBS[j]
				sumPS[i] += in.PS1[j]
				sumWR[i] += in.W[j] / r
			}
		}
		for i := range scale {
			if sumPS[i] > 0 {
				scale[i] = sumPS[i] / (1 + sumWR[i])
			} else {
				scale[i] = 1
			}
		}
	}

	lambda := growF(ws.lambda, nRes)
	ws.lambda = lambda
	sums := growF(ws.sums, nRes)
	ws.sums = sums
	next := growF(ws.next, nRes)
	ws.next = next
	for i := range lambda {
		lambda[i] = 2 * scale[i] // start above the target, as in Fig. 4(a)
	}
	if report != nil {
		report.captureTrace(lambda)
	}

	final := d.iterate(in, ws, lambda, next, sums, scale, report)
	if report != nil {
		report.captureLambda(final)
	}

	// Repair: freeze the association from the final prices and water-fill
	// each resource exactly so the allocation is feasible and supported by
	// consistent prices.
	d.repair(in, out, final, ws)
	if err := feasibleCached(in, out, ws, 1e-9); err != nil {
		return fmt.Errorf("dual solver produced infeasible allocation: %w", err)
	}
	return nil
}

// iterate runs the projected-subgradient loop (Table I steps 3-11),
// alternating between the lambda and next buffers instead of copying —
// each iteration fully rewrites the target buffer, so the swap is
// bit-identical to the copy it replaces. It returns the buffer holding the
// final prices.
//
//femtovet:owns lambda, next
//femtovet:borrows in, ws, sums, scale, report
func (d *DualSolver) iterate(in *Instance, ws *solveWorkspace, lambda, next, sums, scale []float64, report *DualReport) []float64 {
	k := in.K()
	for it := 0; it < d.maxIter; it++ {
		// Steps 3-8: each user solves its subproblem at the current prices.
		for i := range sums {
			sums[i] = 0
		}
		for j := 0; j < k; j++ {
			i := in.FBS[j]
			l0 := math.Max(lambda[0], d.lambdaMin)
			l1 := math.Max(lambda[i], d.lambdaMin)
			bv0, rho0 := ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
			bv1, rho1 := ws.u1[j].branchAndRhoWR(l1, ws.logW[j], ws.wr1[j], ws.bl1[j])
			if bv0 > bv1 {
				sums[0] += rho0
			} else {
				sums[i] += rho1
			}
		}

		// Step 9: projected subgradient update, eqs. (18)-(19).
		move := 0.0
		for i := range lambda {
			g := 1 - sums[i] // subgradient of the dual in lambda_i
			if g < -10 {
				g = -10 // clip runaway demand when a price hits zero
			}
			s := d.stepScale * scale[i]
			if d.diminishing {
				s /= math.Sqrt(1 + float64(it))
			}
			next[i] = lambda[i] - s*g
			if next[i] < 0 {
				next[i] = 0
			}
			delta := next[i] - lambda[i]
			move += delta * delta
		}
		lambda, next = next, lambda
		if report != nil {
			report.Iterations = it + 1
			report.captureTrace(lambda)
		}
		if move <= d.phi {
			if report != nil {
				report.Converged = true
			}
			break
		}
	}
	return lambda
}

// repair builds the final feasible allocation: users keep the base station
// chosen at the final prices; each resource is then water-filled among its
// users.
func (d *DualSolver) repair(in *Instance, alloc *Allocation, lambda []float64, ws *solveWorkspace) {
	k := in.K()
	alloc.resize(k)
	for j := 0; j < k; j++ {
		i := in.FBS[j]
		l0 := math.Max(lambda[0], d.lambdaMin)
		l1 := math.Max(lambda[i], d.lambdaMin)
		bv0, _ := ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
		bv1, _ := ws.u1[j].branchAndRhoWR(l1, ws.logW[j], ws.wr1[j], ws.bl1[j])
		alloc.MBS[j] = bv0 > bv1
	}
	fillResources(in, alloc, ws)
	polishAssociation(in, alloc, 4, ws)
}

// polishTol is the association polish's acceptance threshold: a flip is
// kept only when it raises the computed objective by more than this.
const polishTol = 1e-12

// polishAssociation runs best-improvement coordinate search over the binary
// base-station association: flip one user at a time, re-water-fill the two
// affected resources, keep strict improvements. It repairs mis-associations
// left by a truncated dual iteration; at most maxRounds passes over the
// users. The workspace must have prepareUsers already applied for this
// instance (it supplies the water-filling views and cached log(W) terms),
// and alloc must hold the fills' output for its association, with their
// prices in fillPrice (fillResources leaves it so). It returns the
// objective of the allocation it leaves, alloc.ObjectiveLogW(in, ws.logW)
// bit for bit.
//
// Most calls find nothing to flip, and the first round proves it by
// re-filling and re-evaluating every flip. So the polish first bounds what
// any flip can gain by weak duality at the fills' own prices (polishGap);
// when that bound, rounding included, is within the acceptance threshold,
// the round would reject every flip and leave alloc as it is, bit for bit,
// and is skipped. The bound is only taken at entry: after an improving
// round the loop runs to the end. polishGap sums the entry state's
// objective terms in user order on the way, which is ObjectiveLogW's sum:
// that is the objective returned when the round is skipped, and the
// loop's starting value otherwise. Every flip the loop keeps evaluates
// ObjectiveLogW of its state, and a rejected flip restores the state the
// current value describes.
//
// A rejected flip restores the snapshotted shares instead of re-running the
// two water-fills: the fills are deterministic functions of the (restored)
// association, and the invariant that the current shares always equal the
// fills' output for the current association makes the copy byte-identical
// to the recomputation — at half the cost, since most flips are rejected.
func polishAssociation(in *Instance, alloc *Allocation, maxRounds int, ws *solveWorkspace) float64 {
	gap, margin, cur := polishGap(in, alloc, ws)
	if gap+margin <= polishTol {
		return cur
	}
	k := in.K()
	save0 := growF(ws.polishRho0, k)
	ws.polishRho0 = save0
	save1 := growF(ws.polishRho1, k)
	ws.polishRho1 = save1
	for round := 0; round < maxRounds; round++ {
		improved := false
		for j := 0; j < k; j++ {
			// Flipping user j only perturbs the common channel and its own
			// FBS band; every other resource's water-filling is unchanged.
			copy(save0, alloc.Rho0)
			copy(save1, alloc.Rho1)
			alloc.MBS[j] = !alloc.MBS[j]
			fillBand(in, alloc, 0, ws)
			fillBand(in, alloc, in.FBS[j], ws)
			if v := alloc.ObjectiveLogW(in, ws.logW); v > cur+polishTol {
				cur = v
				improved = true
			} else {
				alloc.MBS[j] = !alloc.MBS[j]
				copy(alloc.Rho0, save0)
				copy(alloc.Rho1, save1)
			}
		}
		if !improved {
			return cur
		}
	}
	return cur
}

// unitRoundoff is u = 2^-53: a rounded float64 operation is exact up to a
// relative error of u.
const unitRoundoff = 0x1p-53

// polishGap bounds what one association flip of the polish can gain, by
// weak duality at the prices λ_r of alloc's fills (fillPrice). gap is the
// duality gap at those prices, summed per user:
//
//	Σ_j [max(bv0_j(λ_0), bv1_j(λ_i)) − (t_j − λ_r(j) ρ_j)] + Σ_r λ_r (1 − load_r)
//
// where bv are the users' branch values (Table I step 4), t_j is user j's
// objective term and ρ_j its share on its resource r(j). No feasible
// allocation, and so no flip, has an objective above the current one by
// more than the gap. margin bounds every rounding the argument meets — the
// two objective sums the polish compares, the branch values, the shares'
// distance from each price's exact optimum, the fills' budgets, and the
// gap's own sum (DESIGN §9) — so gap+margin <= polishTol proves that the
// polish's first round rejects every flip. A NaN or infinite gap or margin
// (a user without an encoding ceiling facing a zero-price resource) proves
// nothing. obj is the sum of the objective terms t_j in user order, which
// is alloc.ObjectiveLogW(in, ws.logW) bit for bit.
//
// While the workspace holds a live epoch, each user's four summands — t_j,
// its gap term, its magnitude a_j and its branch-error bound — are kept in
// polishKeys/polishVals and reused when the user's inputs repeat (see
// polishKey); the sums are taken in user order either way.
func polishGap(in *Instance, alloc *Allocation, ws *solveWorkspace) (gap, margin, obj float64) {
	const u = unitRoundoff
	k, price := in.K(), ws.fillPrice
	load := growF(ws.polishLoad, len(price))
	ws.polishLoad = load
	for r := range load {
		load[r] = 0
	}
	if ws.memoLive && len(ws.polishKeys) < k {
		ws.polishKeys = make([]polishKey, k)
		ws.polishVals = make([]polishTerms, k)
	}
	// Per-user magnitudes a >= |log W_j| + 1 bound every objective term a
	// fill can produce; prefixes sums their running prefix sums past the
	// first user, which bounds the rounding of a K-term objective sum.
	var sumA, prefix, prefixes, absGap, branch float64
	for j := 0; j < k; j++ {
		i := in.FBS[j]
		r, rho := 0, alloc.Rho0[j]
		if !alloc.MBS[j] {
			r, rho = i, alloc.Rho1[j]
		}
		load[r] += rho
		var v polishTerms
		key := polishKey{
			rho: math.Float64bits(rho), l0: math.Float64bits(price[0]),
			li: math.Float64bits(price[i]), g: math.Float64bits(in.G[i-1]),
			epoch: ws.eqEpoch, mbs: alloc.MBS[j],
		}
		if ws.memoLive && ws.polishKeys[j] == key {
			v = ws.polishVals[j]
		} else {
			v0, v1 := ws.u0[j], ws.u1[j]
			lw := ws.logW[j]
			bv0, s0 := v0.branchAndRhoWR(price[0], lw, ws.wr0[j], ws.bl0[j])
			bv1, s1 := v1.branchAndRhoWR(price[i], lw, ws.wr1[j], ws.bl1[j])
			v.t = objectiveTerm(in, alloc, lw, j)
			v.d = max(bv0, bv1) - (v.t - price[r]*rho)
			v.a = math.Abs(lw) + 2*max(v0.r, v1.r)/in.W[j] + 1
			v.branch = max(v0.branchError(price[0], ws.wr0[j], s0, v.a), v1.branchError(price[i], ws.wr1[j], s1, v.a))
			if ws.memoLive {
				ws.polishKeys[j], ws.polishVals[j] = key, v
			}
		}
		obj += v.t
		gap += v.d
		absGap += math.Abs(v.d)
		sumA += v.a
		prefix += v.a
		if j > 0 {
			prefixes += prefix
		}
		branch += v.branch
	}
	dual := 0.0
	for r, lam := range price {
		gap += lam * (1 - load[r])
		dual += lam * (1 + load[r])
	}
	margin = 1.02 * (u*(2*prefixes+11*sumA+float64(3*k+len(price)+10)*(absGap+dual)+1) + branch)
	return gap, margin, obj
}

// branchError bounds how far the branch value branchAndRhoWR returned at
// price lambda, with share rho, may lie below the exact supremum over
// shares of the user's Lagrangian on this resource, given a >= |log w| + 1:
// the rounding of the value's evaluation, plus the steepest slope of the
// Lagrangian, ps*r/w + lambda, times the distance of the rounded share from
// the exact optimum. That distance is zero when both sit at the zero share,
// the cap's rounding when both sit at the cap, and otherwise the rounding
// of ps/lambda - w/r as well. At a zero price an uncapped user's optimum is
// unbounded: +Inf.
func (v waterfillUser) branchError(lambda, wr, rho, a float64) float64 {
	const u = unitRoundoff
	eval := u * (9*a + 6*rho*(v.r/v.w+lambda))
	if v.r <= 0 || v.ps <= 0 {
		return eval // a constant branch: both shares are zero
	}
	capped := v.cap >= 0 && !math.IsInf(v.cap, 1)
	capErr := 0.0
	if capped {
		capErr = 2 * u * v.cap
	}
	var dist float64
	switch {
	case lambda > 0:
		x := v.ps/lambda - wr
		xErr := 3 * u * (v.ps/lambda + wr)
		switch {
		case x+xErr < 0:
			dist = 0
		case capped && x-xErr > v.cap+capErr:
			dist = capErr
		default:
			dist = xErr + capErr
		}
	case capped:
		dist = capErr
	default:
		return math.Inf(1)
	}
	return eval + (v.ps*v.r/v.w+lambda)*dist
}

// fillResources water-fills the common channel among MBS users and each FBS
// band among its users, given a fixed association in alloc.MBS.
func fillResources(in *Instance, alloc *Allocation, ws *solveWorkspace) {
	for i := 0; i <= in.N(); i++ {
		fillBand(in, alloc, i, ws)
	}
}

// fillBand water-fills one resource among the users associated with it, on
// workspace scratch: the common channel among the MBS users when i == 0,
// else FBS i's licensed band among its FBS users. The effective users are
// gathered straight into the flat waterfillColumns views, reusing the w/r
// quotients prepareUsers hoisted; users filtered out here (no success
// probability or no rate) would get a zero share, so every associated
// user's shares are set to zero up front. The fill's supporting price goes
// to fillPrice[i] (0 for a resource without effective users).
//
// While the workspace holds a live epoch the fill is memoized: for a fixed
// base instance, the common channel's shares are a pure function of its
// effective member set, and FBS i's of (i, G_i bits, effective member set),
// which the key holds exactly as a user bitmask (instances of more than 64
// users just compute). Polishing flips the same users in every Q evaluation
// of a greedy AllocateInto, and a candidate perturbs only one FBS's G_i, so most
// fills repeat an earlier one of the epoch.
func fillBand(in *Instance, alloc *Allocation, i int, ws *solveWorkspace) {
	k := in.K()
	views, wrs, shares := ws.u0, ws.wr0, alloc.Rho0
	key := memoKey{fbs: int32(i), epoch: ws.eqEpoch}
	if i > 0 {
		views, wrs, shares = ws.u1, ws.wr1, alloc.Rho1
		key.b = math.Float64bits(in.G[i-1])
	}
	idx := ws.wfIdx[:0]
	for j := 0; j < k; j++ {
		// On the common channel the MBS users; on band i its FBS users.
		if alloc.MBS[j] != (i == 0) || i > 0 && in.FBS[j] != i {
			continue
		}
		alloc.Rho0[j] = 0
		alloc.Rho1[j] = 0
		if u := views[j]; u.ps > 0 && u.r > 0 {
			idx = append(idx, j)
			key.a |= 1 << uint(j)
		}
	}
	ws.wfIdx = idx
	memo := ws.memoLive && k <= 64 && len(idx) > 0
	if memo {
		if rho, lambda, ok := ws.fillGet(key, len(idx)); ok {
			for t, j := range idx {
				shares[j] = rho[t]
			}
			ws.fillPrice[i] = lambda
			return
		}
	}
	ps, wr, caps := ws.wfPS[:0], ws.wfWR[:0], ws.wfCap[:0]
	for _, j := range idx {
		ps = append(ps, views[j].ps)
		wr = append(wr, wrs[j])
		caps = append(caps, views[j].cap)
	}
	ws.wfPS, ws.wfWR, ws.wfCap = ps, wr, caps
	rho := growF(ws.wfRho, len(idx))
	ws.wfRho = rho
	lambda := waterfillColumns(rho, ps, wr, caps, 1)
	for t, j := range idx {
		shares[j] = rho[t]
	}
	ws.fillPrice[i] = lambda
	if memo {
		ws.fillPut(key, rho, lambda)
	}
}
