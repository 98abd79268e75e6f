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
//femtovet:borrows rho, ps, wr, caps
func waterfillColumns(rho, ps, wr, caps []float64, budget float64) float64 {
	ne := len(ps)
	for i := range rho {
		rho[i] = 0
	}
	if budget <= 0 || ne == 0 {
		return 0
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
		return 0
	}
	for iter := 0; iter < 100; iter++ {
		mid := 0.5 * (lo + hi)
		if demand(mid) > budget {
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
	return lambda
}
