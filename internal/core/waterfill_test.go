package core

import (
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/rng"
)

// wfu builds an uncapped water-filling user for tests.
func wfu(ps, w, r float64) waterfillUser {
	return waterfillUser{ps: ps, w: w, r: r, cap: -1}
}

func TestWaterfillSaturatesBudget(t *testing.T) {
	users := []waterfillUser{
		wfu(0.9, 30, 0.3),
		wfu(0.7, 28, 0.25),
		wfu(0.8, 26, 0.35),
	}
	rho, lambda := columnsWaterfill(users, 1)
	total := 0.0
	for _, r := range rho {
		if r < 0 {
			t.Fatalf("negative share %v", r)
		}
		total += r
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", total)
	}
	if lambda <= 0 {
		t.Fatalf("supporting price %v, want positive", lambda)
	}
}

// TestWaterfillKKT: at the solution, every user with a positive share has
// marginal utility ps*r/(w+rho*r) equal to the price, and users at zero have
// marginal utility at most the price.
func TestWaterfillKKT(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		s := rng.New(seed)
		n := int(nRaw%6) + 1
		users := make([]waterfillUser, n)
		for i := range users {
			users[i] = wfu(0.3+0.7*s.Float64(), 20+20*s.Float64(), 0.05+0.5*s.Float64())
		}
		rho, lambda := columnsWaterfill(users, 1)
		if lambda <= 0 {
			return false
		}
		for i, u := range users {
			marginal := u.ps * u.r / (u.w + rho[i]*u.r)
			if rho[i] > 1e-9 {
				if math.Abs(marginal-lambda)/lambda > 1e-5 {
					return false
				}
			} else if marginal > lambda*(1+1e-6) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaterfillOptimality: the water-filling solution beats random feasible
// allocations of the same budget.
func TestWaterfillOptimality(t *testing.T) {
	s := rng.New(7)
	users := []waterfillUser{
		wfu(0.9, 30, 0.3),
		wfu(0.5, 25, 0.4),
		wfu(0.8, 35, 0.2),
	}
	value := func(rho []float64) float64 {
		v := 0.0
		for i, u := range users {
			v += u.ps * math.Log(u.w+rho[i]*u.r)
		}
		return v
	}
	rho, _ := columnsWaterfill(users, 1)
	best := value(rho)
	for trial := 0; trial < 2000; trial++ {
		// Random point on the simplex.
		a, b := s.Float64(), s.Float64()
		if a > b {
			a, b = b, a
		}
		cand := []float64{a, b - a, 1 - b}
		if v := value(cand); v > best+1e-9 {
			t.Fatalf("random allocation %v beats water-filling: %v > %v", cand, v, best)
		}
	}
}

func TestWaterfillDegenerate(t *testing.T) {
	// No users.
	rho, lambda := columnsWaterfill(nil, 1)
	if len(rho) != 0 || lambda != 0 {
		t.Fatal("empty water-filling should be zeros")
	}
	// Zero budget.
	rho, _ = columnsWaterfill([]waterfillUser{wfu(0.5, 30, 0.3)}, 0)
	if rho[0] != 0 {
		t.Fatal("zero budget must give zero shares")
	}
	// All users ineffective (zero rate or zero success probability).
	rho, lambda = columnsWaterfill([]waterfillUser{
		wfu(0, 30, 0.3),
		wfu(0.5, 30, 0),
	}, 1)
	if rho[0] != 0 || rho[1] != 0 || lambda != 0 {
		t.Fatal("ineffective users must get nothing")
	}
}

func TestWaterfillSingleUserTakesAll(t *testing.T) {
	rho, _ := columnsWaterfill([]waterfillUser{wfu(0.8, 30, 0.3)}, 1)
	if math.Abs(rho[0]-1) > 1e-9 {
		t.Fatalf("single user share %v, want 1", rho[0])
	}
}

func TestWaterfillFavorsBetterUsers(t *testing.T) {
	// Same quality, same rate, different success probability: the more
	// reliable user gets the larger share.
	users := []waterfillUser{
		wfu(0.9, 30, 0.3),
		wfu(0.5, 30, 0.3),
	}
	rho, _ := columnsWaterfill(users, 1)
	if rho[0] <= rho[1] {
		t.Fatalf("shares %v: reliable user should get more", rho)
	}
	// Same success, lower current quality gets more (log utility).
	users = []waterfillUser{
		wfu(0.8, 35, 0.3),
		wfu(0.8, 25, 0.3),
	}
	rho, _ = columnsWaterfill(users, 1)
	if rho[1] <= rho[0] {
		t.Fatalf("shares %v: lower-quality user should get more", rho)
	}
}

// wrOf is the hoisted w/r quotient prepareUsers caches (zero for a
// zero-rate user, whose share rhoAtWR never computes).
func wrOf(u waterfillUser) float64 {
	if u.r <= 0 {
		return 0
	}
	return u.w / u.r
}

func TestBranchValueMatchesDefinition(t *testing.T) {
	u := wfu(0.8, 30, 0.3)
	logW := math.Log(u.w)
	bl := u.ps*logW + (1-u.ps)*logW
	lambda := 0.004
	got, rho := u.branchAndRhoWR(lambda, logW, wrOf(u), bl)
	if rho != u.rhoAtWR(lambda, wrOf(u)) || rho <= 0 {
		t.Fatalf("share %v, want the positive rhoAtWR share", rho)
	}
	want := u.ps*math.Log(u.w+rho*u.r) + (1-u.ps)*math.Log(u.w) - lambda*rho
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("branch value = %v, want %v", got, want)
	}
	// At a very high price the user demands nothing and the value is the
	// idle utility log(w) (both expectation branches coincide).
	if got, rho := u.branchAndRhoWR(1e9, logW, wrOf(u), bl); rho != 0 || math.Abs(got-math.Log(u.w)) > 1e-12 {
		t.Fatalf("idle branch value = %v at share %v", got, rho)
	}
}

func TestRhoAtClosedForm(t *testing.T) {
	u := wfu(0.8, 30, 0.3)
	lambda := 0.004
	want := u.ps/lambda - u.w/u.r
	if got := u.rhoAtWR(lambda, wrOf(u)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rhoAtWR = %v, want %v (Table I step 3)", got, want)
	}
	// Price high enough that the bracket goes negative: share is zero.
	if got := u.rhoAtWR(1, wrOf(u)); got != 0 {
		t.Fatalf("rhoAtWR(1) = %v, want 0", got)
	}
	// Degenerate users demand nothing.
	if u := wfu(0, 30, 0.3); u.rhoAtWR(0.01, wrOf(u)) != 0 {
		t.Fatal("zero-ps user demanded")
	}
	if u := wfu(0.5, 30, 0); u.rhoAtWR(0.01, wrOf(u)) != 0 {
		t.Fatal("zero-rate user demanded")
	}
}
