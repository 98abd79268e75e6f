package core

import (
	"math"
	"testing"

	"femtocr/internal/rng"
)

// columnsOf gathers the effective users (ps > 0, r > 0) of a scalar
// instance into the flat columns waterfillColumns consumes — the same
// gather fillBand performs — returning the column arrays and
// the original index of each retained user.
func columnsOf(users []waterfillUser) (idx []int, ps, wr, caps []float64) {
	for j, u := range users {
		if u.ps > 0 && u.r > 0 {
			idx = append(idx, j)
			ps = append(ps, u.ps)
			wr = append(wr, u.w/u.r)
			caps = append(caps, u.cap)
		}
	}
	return idx, ps, wr, caps
}

// columnsWaterfill water-fills users through the production path: gather
// the effective users, run waterfillColumns, and scatter the shares back
// (zero for the filtered-out users). It returns the per-user shares and the
// supporting price.
func columnsWaterfill(users []waterfillUser, budget float64) ([]float64, float64) {
	idx, ps, wr, caps := columnsOf(users)
	colRho := make([]float64, len(idx))
	lambda := waterfillColumns(colRho, ps, wr, caps, budget)
	rho := make([]float64, len(users))
	for t, j := range idx {
		rho[j] = colRho[t]
	}
	return rho, lambda
}

// scalarRho is the per-user share of Table I step 3 that scalarWaterfill
// bisects over: [ps/lambda - w/r]+ clamped to the cap, with the w/r
// division done per call.
func scalarRho(u waterfillUser, lambda float64) float64 {
	if u.r <= 0 || u.ps <= 0 {
		return 0
	}
	rho := u.ps/lambda - u.w/u.r
	if rho < 0 {
		return 0
	}
	if u.cap >= 0 && rho > u.cap {
		return u.cap
	}
	return rho
}

// scalarWaterfill is the reference water-filling the columnar hot path must
// reproduce bit for bit: a plain per-user walk over the structs, every
// user (inert ones included) visited on every price probe, with no early
// exit from the demand sum.
func scalarWaterfill(users []waterfillUser, budget float64) ([]float64, float64) {
	rho := make([]float64, len(users))
	if budget <= 0 {
		return rho, 0
	}
	demand := func(lambda float64) float64 {
		total := 0.0
		for _, u := range users {
			total += scalarRho(u, lambda)
		}
		return total
	}
	sumPS := 0.0
	effective := 0
	for _, u := range users {
		if u.ps > 0 && u.r > 0 {
			sumPS += u.ps
			effective++
		}
	}
	if effective == 0 {
		return rho, 0
	}
	hi := sumPS / budget
	if demand(hi) > budget {
		for i := 0; i < 64 && demand(hi) > budget; i++ {
			hi *= 2
		}
	}
	const tiny = 1e-18
	lo := tiny
	if demand(lo) <= budget {
		for j, u := range users {
			rho[j] = scalarRho(u, lo)
		}
		return rho, 0
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
	lambda := hi
	total := 0.0
	for j, u := range users {
		rho[j] = scalarRho(u, lambda)
		total += rho[j]
	}
	if total > 0 && total < budget {
		scale := budget / total
		for j := range rho {
			scaled := rho[j] * scale
			if c := users[j].cap; c >= 0 && scaled > c {
				scaled = c
			}
			rho[j] = scaled
		}
	}
	return rho, lambda
}

// checkColumnsMatchScalar runs the columnar water-filling and the scalar
// reference on the same instance and demands bitwise agreement: the
// supporting price and every per-user share, including the exact zeros of
// filtered-out users.
func checkColumnsMatchScalar(t *testing.T, label string, users []waterfillUser, budget float64) {
	t.Helper()
	refRho, refLambda := scalarWaterfill(users, budget)
	colRho, colLambda := columnsWaterfill(users, budget)
	if math.Float64bits(colLambda) != math.Float64bits(refLambda) {
		t.Fatalf("%s: lambda %x (columns) vs %x (scalar)", label, colLambda, refLambda)
	}
	for j := range users {
		if math.Float64bits(colRho[j]) != math.Float64bits(refRho[j]) {
			t.Fatalf("%s: rho[%d] = %x (columns) vs %x (scalar); users=%+v budget=%v",
				label, j, colRho[j], refRho[j], users, budget)
		}
	}
}

// TestWaterfillColumnsDegenerate pins the vectorized path to the scalar
// reference on every boundary shape the solvers actually produce: zero and
// negative budgets, saturated-at-zero ceilings, no effective users, a
// single user, and mixtures of effective and inert users.
func TestWaterfillColumnsDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		users  []waterfillUser
		budget float64
	}{
		{"empty", nil, 1},
		{"zero budget", []waterfillUser{{ps: 0.9, w: 100, r: 50, cap: -1}}, 0},
		{"negative budget", []waterfillUser{{ps: 0.9, w: 100, r: 50, cap: -1}}, -1},
		{"single unbounded user", []waterfillUser{{ps: 0.9, w: 100, r: 50, cap: -1}}, 1},
		{"single capped user", []waterfillUser{{ps: 0.9, w: 100, r: 50, cap: 0.3}}, 1},
		{"cap exactly zero", []waterfillUser{{ps: 0.9, w: 100, r: 50, cap: 0}}, 1},
		{"all ps zero", []waterfillUser{
			{ps: 0, w: 100, r: 50, cap: -1},
			{ps: 0, w: 80, r: 20, cap: 0.5},
		}, 1},
		{"all r zero", []waterfillUser{
			{ps: 0.9, w: 100, r: 0, cap: -1},
			{ps: 0.5, w: 80, r: 0, cap: 0.5},
		}, 1},
		{"mixed inert and effective", []waterfillUser{
			{ps: 0.9, w: 100, r: 50, cap: -1},
			{ps: 0, w: 80, r: 20, cap: -1},
			{ps: 0.5, w: 60, r: 0, cap: -1},
			{ps: 0.7, w: 120, r: 30, cap: 0.2},
		}, 1},
		{"all caps zero", []waterfillUser{
			{ps: 0.9, w: 100, r: 50, cap: 0},
			{ps: 0.5, w: 80, r: 20, cap: 0},
		}, 1},
		{"slack constraint via tiny ps", []waterfillUser{
			{ps: 1e-17, w: 100, r: 50, cap: 0.1},
		}, 1},
	}
	for _, c := range cases {
		checkColumnsMatchScalar(t, c.name, c.users, c.budget)
	}
}

// TestWaterfillColumnsRandomized fuzzes both paths with the instance
// distribution the solvers draw from — mixed effective/inert users, a
// spread of caps including unbounded and zero, budgets spanning scarce to
// ample — and demands bitwise agreement on every trial.
func TestWaterfillColumnsRandomized(t *testing.T) {
	s := rng.New(20260808)
	for trial := 0; trial < 500; trial++ {
		k := 1 + int(s.Uint64()%9)
		users := make([]waterfillUser, k)
		for j := range users {
			u := waterfillUser{
				ps: s.Float64(),
				w:  20 + 200*s.Float64(),
				r:  10 + 100*s.Float64(),
			}
			switch s.Uint64() % 5 {
			case 0:
				u.ps = 0 // inert: no success probability
			case 1:
				u.r = 0 // inert: no rate
			}
			switch s.Uint64() % 4 {
			case 0:
				u.cap = -1 // unbounded
			case 1:
				u.cap = 0 // saturated encoding
			default:
				u.cap = s.Float64()
			}
			users[j] = u
		}
		budget := 0.0
		switch s.Uint64() % 8 {
		case 0: // zero budget
		case 1:
			budget = 3 * s.Float64() // occasionally ample
		default:
			budget = 1 // the unit slot budget of the solvers
		}
		checkColumnsMatchScalar(t, "random", users, budget)
	}
}

// TestWaterfillFastForward pins the fast-forward of waterfillGuided: on the
// randomized instances its closed-form level verifies on most contended
// fills, and a level that is refused — offset by 1e-9, or no level at all —
// falls back to summing every probe, with the same price and shares bit
// for bit as the scalar reference in every case.
func TestWaterfillFastForward(t *testing.T) {
	offset := func(f float64) func(ps, wr, caps []float64, budget float64) float64 {
		return func(ps, wr, caps []float64, budget float64) float64 {
			return f * waterLevel(ps, wr, caps, budget)
		}
	}
	constant := func(v float64) func(ps, wr, caps []float64, budget float64) float64 {
		return func([]float64, []float64, []float64, float64) float64 { return v }
	}
	levels := []struct {
		name   string
		level  func(ps, wr, caps []float64, budget float64) float64
		refuse bool
	}{
		{"closed form", waterLevel, false},
		{"above by 1e-9", offset(1 + 1e-9), true},
		{"below by 1e-9", offset(1 - 1e-9), true},
		{"NaN", constant(math.NaN()), true},
		{"zero", constant(0), true},
		{"negative", constant(-1), true},
		{"infinite", constant(math.Inf(1)), true},
	}
	s := rng.New(20261017)
	contended, fast := 0, make([]int, len(levels))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + int(s.Uint64()%12)
		users := make([]waterfillUser, k)
		for j := range users {
			users[j] = waterfillUser{ps: s.Float64(), w: 20 + 200*s.Float64(), r: 10 + 100*s.Float64(), cap: -1}
			if s.Uint64()%3 != 0 {
				users[j].cap = s.Float64()
			}
		}
		refRho, refLambda := scalarWaterfill(users, 1)
		if refLambda == 0 {
			continue // slack: no bisection to fast-forward
		}
		contended++
		idx, ps, wr, caps := columnsOf(users)
		for l, lv := range levels {
			colRho := make([]float64, len(idx))
			lambda, ok := waterfillGuided(colRho, ps, wr, caps, 1, lv.level)
			if ok {
				fast[l]++
			}
			if math.Float64bits(lambda) != math.Float64bits(refLambda) {
				t.Fatalf("trial %d, %s level: lambda %x, scalar %x", trial, lv.name, lambda, refLambda)
			}
			for c, j := range idx {
				if math.Float64bits(colRho[c]) != math.Float64bits(refRho[j]) {
					t.Fatalf("trial %d, %s level: rho[%d] = %x, scalar %x", trial, lv.name, j, colRho[c], refRho[j])
				}
			}
		}
	}
	t.Logf("%d contended fills; verified: %v", contended, fast)
	if contended < 1000 {
		t.Fatalf("only %d of 2000 fills contended", contended)
	}
	for l, lv := range levels {
		if lv.refuse && fast[l] > 0 {
			t.Errorf("%s level verified on %d fills", lv.name, fast[l])
		}
	}
	if fast[0] < contended*99/100 {
		t.Errorf("closed-form level verified on %d of %d contended fills", fast[0], contended)
	}
}
