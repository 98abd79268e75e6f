package core

import "math"

// waterfillUser is one user competing for a single time-shared resource.
type waterfillUser struct {
	ps  float64 // packet-success probability (objective weight)
	w   float64 // current quality W^{t-1}
	r   float64 // per-unit-rho quality increment (R0 or G_i*R1)
	cap float64 // share ceiling (Wmax-W)/r from the encoding ceiling; < 0 = unbounded
}

// rhoAtWR returns the closed-form share of Table I step 3 at price lambda,
// rho = [ps/lambda - w/r]+, clamped to the user's demand ceiling: beyond it
// the encoding saturates and extra share is worthless. The caller hoists
// the w/r ratio: wr must be the exact quotient u.w/u.r (prepareUsers
// performs that division once per solve), which drops one division from
// every price probe of the bisections.
func (u waterfillUser) rhoAtWR(lambda, wr float64) float64 {
	if u.r <= 0 || u.ps <= 0 {
		return 0
	}
	rho := u.ps/lambda - wr
	if rho < 0 {
		return 0
	}
	if u.cap >= 0 && rho > u.cap {
		return u.cap
	}
	return rho
}

// branchAndRhoWR returns the user's Lagrangian contribution at price
// lambda with its optimal share, ps*log(w + rho*r) + (1-ps)*log(w) -
// lambda*rho, together with that share. This is the quantity compared in
// Table I step 4 to pick the serving base station. The (1-ps)*log(w) term
// is the loss branch of the conditional expectation E[log W^t]: when the
// packet is lost the quality stays at w. (The paper's printed eq. (12)
// omits it, which would let a user prefer an idle association purely for
// its larger success-probability weight; the expectation form used here
// restores the intended comparison.)
//
// The caller hoists three terms: logW is the exact log(w), wr the exact
// w/r quotient, and bl the exact value of ps*logW + (1-ps)*logW
// (prepareUsers computes all three once per solve). When the share is zero
// the full expression collapses to bl - lambda*0; IEEE subtraction of a
// positive zero returns the other operand bit for bit, so returning bl
// directly is bitwise-identical to the long form while skipping a
// math.Log, two multiplies and two adds on the price-too-high path the
// bisections spend most probes in.
func (u waterfillUser) branchAndRhoWR(lambda, logW, wr, bl float64) (float64, float64) {
	rho := u.rhoAtWR(lambda, wr)
	if rho == 0 {
		return bl, 0
	}
	return u.ps*math.Log(u.w+rho*u.r) + (1-u.ps)*logW - lambda*rho, rho
}

// waterfillColumns maximizes sum_j ps_j*log(w_j + rho_j*r_j) subject to
// sum rho_j <= budget, rho_j >= 0 (and each rho_j under its cap), by
// bisection on the price lambda: the KKT conditions make total demand
// strictly decreasing in lambda. It returns the supporting price; with no
// effective users the shares are zero and the price 0.
//
// The users arrive as flat float64 columns holding only the effective ones
// (ps > 0 and r > 0): ps, wr (the hoisted w/r quotient) and caps are
// parallel to rho, and the caller maps the resulting shares back to user
// indices while zeroing everyone it filtered out (see fillBand). The
// contiguous branch-light demand loop is the shape the bisection spends its
// time in. Demand totals are only ever compared
// against the budget, so the accumulation exits as soon as the partial sum
// crosses it — the remaining nonnegative terms cannot bring it back below.
// The property tests in waterfill_prop_test.go pin it bit-identical to a
// per-user scalar reference on random and degenerate instances.
//
// The bisection fast-forwards through a verified bracket around the
// closed-form water level (waterLevel; see waterfillGuided).
//
//femtovet:borrows rho, ps, wr, caps
func waterfillColumns(rho, ps, wr, caps []float64, budget float64) float64 {
	lambda, _ := waterfillGuided(rho, ps, wr, caps, budget, waterLevel)
	return lambda
}

// wfBracket is the relative half-width of the bracket waterfillGuided
// verifies around a predicted water level: wide enough to hold the
// rounded demand's crossing, which lies a few ulps from the exact one, and
// narrow against the bisection's stopping width of 1e-12, so that few
// probes land inside it.
const wfBracket = 0x1p-43

// waterfillGuided is waterfillColumns with the water level predicted by
// level, and it reports whether the prediction was verified.
//
// Every probe of the bisection only asks whether the demand at a price
// exceeds the budget, and that verdict is monotone in the price: each
// share fl(ps/lambda) - wr, clamped to [0, cap], is non-increasing in
// lambda for ps >= 0 (rounded division and subtraction are monotone, and
// so are the clamps), and so is every rounded partial sum of the shares;
// the demand exceeds the budget iff some partial sum does. So once two
// exact demand sums verify a bracket (a, b] around the predicted level —
// the demand at a exceeds the budget and the demand at b does not — every
// probe at or below a exceeds and every probe at or above b does not, and
// the bisection answers those with one comparison. It takes the same
// branches as without the bracket, so its price and shares are the same,
// bit for bit. A prediction that fails either sum (or is not a finite
// positive price) is refused, and every probe sums its demand.
//
//femtovet:borrows rho, ps, wr, caps
func waterfillGuided(rho, ps, wr, caps []float64, budget float64, level func(ps, wr, caps []float64, budget float64) float64) (float64, bool) {
	ne := len(ps)
	for i := range rho {
		rho[i] = 0
	}
	if budget <= 0 || ne == 0 {
		return 0, false
	}
	wr = wr[:ne]
	caps = caps[:ne]
	rho = rho[:ne]
	sumPS := 0.0
	for _, p := range ps {
		sumPS += p
	}
	demand := func(lambda float64) float64 {
		total := 0.0
		for i, p := range ps {
			r := p/lambda - wr[i]
			if r < 0 {
				r = 0
			} else if c := caps[i]; c >= 0 && r > c {
				r = c
			}
			total += r
			if total > budget {
				return total
			}
		}
		return total
	}

	// Price upper bound: at lambda = sum(ps)/budget every rho <= ps/lambda,
	// so total demand <= budget.
	hi := sumPS / budget
	if demand(hi) > budget {
		// Guard against rounding; expand until demand fits.
		for i := 0; i < 64 && demand(hi) > budget; i++ {
			hi *= 2
		}
	}
	// If even a vanishing price cannot fill the budget the constraint is
	// slack; that cannot happen here since demand -> +inf as lambda -> 0+
	// for any effective user, but keep a defensive check.
	const tiny = 1e-18
	lo := tiny
	if demand(lo) <= budget {
		for i, p := range ps {
			r := p/lo - wr[i]
			if r < 0 {
				r = 0
			} else if c := caps[i]; c >= 0 && r > c {
				r = c
			}
			rho[i] = r
		}
		return 0, false
	}
	fast := false
	var a, b float64
	if g := level(ps, wr, caps, budget); g > 0 && g < math.MaxFloat64 {
		a, b = g*(1-wfBracket), g*(1+wfBracket)
		fast = demand(a) > budget && demand(b) <= budget
	}
	for iter := 0; iter < 100; iter++ {
		mid := 0.5 * (lo + hi)
		var over bool
		switch {
		case fast && mid <= a:
			over = true
		case fast && mid >= b:
			over = false
		default:
			over = demand(mid) > budget
		}
		if over {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*hi {
			break
		}
	}
	lambda := hi // feasible side
	total := 0.0
	for i, p := range ps {
		r := p/lambda - wr[i]
		if r < 0 {
			r = 0
		} else if c := caps[i]; c >= 0 && r > c {
			r = c
		}
		rho[i] = r
		total += r
	}
	// Distribute any residual slack caused by tolerance to keep the budget
	// exactly saturated, without pushing anyone past their demand ceiling.
	if total > 0 && total < budget {
		scale := budget / total
		for i := range rho {
			scaled := rho[i] * scale
			if c := caps[i]; c >= 0 && scaled > c {
				scaled = c
			}
			rho[i] = scaled
		}
	}
	return lambda, fast
}

// wfLevelMax bounds the columns waterLevel predicts a level for: their
// breakpoints live in a stack array. Wider fills just bisect.
const wfLevelMax = 32

// waterLevel predicts the price at which the columns' demand meets the
// budget, in closed form. In exact arithmetic the demand
// sum_j clamp(ps_j/lambda - wr_j, 0, cap_j) is continuous, non-increasing
// and, between consecutive breakpoints — ps/wr, where a share leaves zero,
// and ps/(cap+wr), where it reaches its cap — of the form A/lambda - B + C,
// with A and B the sums of ps and wr over the users strictly between their
// breakpoints and C the caps of the capped ones. A sweep down the sorted
// breakpoints finds the segment where the demand reaches the budget, whose
// level is A/(budget + B - C). The result is only a guess (NaN or out of
// range when there is none): waterfillGuided trusts it only through two
// exact demand sums.
func waterLevel(ps, wr, caps []float64, budget float64) float64 {
	n := len(ps)
	if n > wfLevelMax {
		return math.NaN()
	}
	// Breakpoints and their users: i enters the interior below bp, and ^i
	// leaves it for its cap below bp.
	var bp [2 * wfLevelMax]float64
	var ev [2 * wfLevelMax]int
	m := 0
	for i, p := range ps {
		bp[m], ev[m] = p/wr[i], i
		m++
		if c := caps[i]; c >= 0 {
			bp[m], ev[m] = p/(c+wr[i]), ^i
			m++
		}
	}
	// Insertion sort, descending.
	for t := 1; t < m; t++ {
		x, e := bp[t], ev[t]
		s := t
		for ; s > 0 && bp[s-1] < x; s-- {
			bp[s], ev[s] = bp[s-1], ev[s-1]
		}
		bp[s], ev[s] = x, e
	}
	var sa, sb, sc float64
	for t := 0; t < m; t++ {
		if sa/bp[t]-sb+sc >= budget {
			break
		}
		if i := ev[t]; i >= 0 {
			sa += ps[i]
			sb += wr[i]
		} else {
			i = ^i
			sa -= ps[i]
			sb -= wr[i]
			sc += caps[i]
		}
	}
	return sa / (budget + sb - sc)
}
