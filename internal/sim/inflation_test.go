package sim

import (
	"math"
	"testing"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
)

// literalGainInflation is the bound trajectory's gain inflation without the
// bracket: every probe of the doubling-and-bisection search evaluates the
// inflated objective. inflation.solve must return its theta bit for bit.
func literalGainInflation(in *core.Instance, alloc *core.Allocation, value, upper float64) float64 {
	if upper <= value {
		return 1
	}
	k := in.K()
	scratch := core.NewAllocation(k)
	logW := make([]float64, k)
	for j, w := range in.W {
		logW[j] = math.Log(w)
	}
	obj := func(theta float64) float64 {
		copy(scratch.MBS, alloc.MBS)
		for j := range scratch.Rho0 {
			scratch.Rho0[j] = alloc.Rho0[j] * theta
			scratch.Rho1[j] = alloc.Rho1[j] * theta
		}
		return scratch.ObjectiveLogW(in, logW)
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
		last := !(lo < mid && mid < hi)
		if obj(mid) < upper {
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

// checkInflation solves one gain inflation with f and with the literal
// search and fails unless both return the same theta bit for bit. It
// reports whether the bracket was verified.
func checkInflation(t *testing.T, what string, f *inflation, in *core.Instance, alloc *core.Allocation, value, upper float64) bool {
	t.Helper()
	want := literalGainInflation(in, alloc, value, upper)
	got := f.solve(in, alloc, value, upper)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: theta %v (bracket verified %v: (%v, %v]), literal search %v", what, got, f.fast, f.a, f.b, want)
	}
	return f.fast
}

// checkBrackets hands verify brackets around the literal search's theta,
// their ends from 2^-52 to 2^-30 of it away, at the margin margin takes
// there, and requires the search to return the literal theta bit for bit
// under every bracket verify accepts. It returns the brackets accepted and
// tried. The narrow ones straddle the objective's rounding noise, where a
// computed objective near upper reads on either side of it; only the
// margin keeps verify from accepting an end there, whose probes the search
// would then answer on the wrong side.
func checkBrackets(t *testing.T, what string, s *rng.Stream, f *inflation, in *core.Instance, alloc *core.Allocation, value, upper float64) (accepted, tried int) {
	t.Helper()
	if upper <= value {
		return 0, 0
	}
	want := literalGainInflation(in, alloc, value, upper)
	f.start(in, alloc, upper)
	e := f.margin(want)
	for tried = 0; tried < 12; tried++ {
		a := want * (1 - math.Ldexp(1+s.Float64(), -53+s.IntN(24)))
		b := want * (1 + math.Ldexp(1+s.Float64(), -53+s.IntN(24)))
		f.fast = f.verify(a, b, e)
		if f.fast {
			accepted++
		}
		if got := f.search(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: theta %v under the bracket (%v, %v] (verified %v), literal search %v", what, got, a, b, f.fast, want)
		}
	}
	return accepted, tried
}

// inflationCase draws a random slot for the gain inflation: 1-12 users on
// 1-3 FBSs, degenerate rates and success probabilities (memoDegenerate's
// zero one time in six), no ceilings, or ceilings of which some are
// already reached or passed and some bind below the inflated gains; an
// allocation that is either a solve's or random, with zero shares; the
// objective at theta = 1 as value, now and then off by a little; and a
// bound from just above the value to far above what any theta <= 2^20
// reaches.
func inflationCase(s *rng.Stream) (*core.Instance, *core.Allocation, float64, float64) {
	n := 1 + s.IntN(3)
	k := 1 + s.IntN(12)
	in := &core.Instance{G: make([]float64, n)}
	degenerate := func(v float64) float64 {
		if s.IntN(6) == 0 {
			return 0
		}
		return v
	}
	for j := 0; j < k; j++ {
		w := 25 + 15*s.Float64()
		if s.IntN(5) == 0 {
			w = 0.5 + s.Float64() // log W near zero, of either sign
		}
		in.W = append(in.W, w)
		in.R0 = append(in.R0, degenerate(0.05+0.45*s.Float64()))
		in.R1 = append(in.R1, degenerate(0.05+0.45*s.Float64()))
		in.PS0 = append(in.PS0, degenerate(0.3+0.7*s.Float64()))
		in.PS1 = append(in.PS1, degenerate(0.3+0.7*s.Float64()))
		in.FBS = append(in.FBS, 1+s.IntN(n))
	}
	for i := range in.G {
		in.G[i] = degenerate(5 * s.Float64())
	}
	if s.IntN(3) > 0 {
		in.WMax = make([]float64, k)
		for j, w := range in.W {
			switch s.IntN(6) {
			case 0:
				in.WMax[j] = w // no room
			case 1:
				in.WMax[j] = 0.5 * w // past its ceiling: a gain clamps to zero
			case 2:
				in.WMax[j] = w + 0.01*s.Float64() // binds at a small theta
			default:
				in.WMax[j] = w + 10*s.Float64()
			}
		}
	}
	alloc := core.NewAllocation(k)
	if s.IntN(2) == 0 {
		if err := (&core.EquilibriumSolver{}).SolveInto(in, alloc); err != nil {
			panic(err)
		}
	} else {
		for j := range alloc.MBS {
			alloc.MBS[j] = s.IntN(2) == 0
			share := degenerate(s.Float64() / float64(k))
			if alloc.MBS[j] {
				alloc.Rho0[j] = share
			} else {
				alloc.Rho1[j] = share
			}
		}
	}
	value := alloc.Objective(in)
	if s.IntN(4) == 0 {
		value -= 1e-9 * s.Float64()
	}
	upper := value + math.Pow(10, -12+15*s.Float64())
	return in, alloc, value, upper
}

// TestGainInflationFastForward is the oracle for the inflation's verified
// bracket: every bounded slot of the engine on the paper's interfering
// cell, over a utilization sweep and several seeds, and random slots
// (inflationCase) must get the literal search's theta, bit for bit, both
// through solve and under the narrow brackets of checkBrackets. The
// bracket must verify on at least 99% of the engine's bounded slots.
func TestGainInflationFastForward(t *testing.T) {
	s := rng.New(31)
	var accepted, tried int
	gops := 5
	if testing.Short() || raceEnabled {
		gops = 2
	}
	slots, verified := 0, 0
	for _, eta := range []float64{0.3, 0.45, 0.57, 0.7} {
		cfg, err := netmodel.DefaultConfig().WithUtilization(eta)
		if err != nil {
			t.Fatal(err)
		}
		net, err := netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec())
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			e, err := newEngine(net, (&Options{Seed: seed, GOPs: gops, TrackBound: true}).withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			check := newInflation(net.K())
			for slot := 0; slot < gops*net.T; slot++ {
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
				// The slot's allocation is valid until the next step.
				sa := &e.stage.out
				if !sa.Greedy || sa.Bound <= sa.Value {
					continue
				}
				slots++
				if checkInflation(t, "engine slot", check, sa.Instance, sa.Alloc, sa.Value, sa.Bound) {
					verified++
				}
				n, m := checkBrackets(t, "engine slot", s, check, sa.Instance, sa.Alloc, sa.Value, sa.Bound)
				accepted, tried = accepted+n, tried+m
			}
		}
	}
	if slots == 0 || float64(verified) < 0.99*float64(slots) {
		t.Fatalf("bracket verified on %d of %d bounded engine slots, want at least 99%%", verified, slots)
	}
	for c := 0; c < 2000; c++ {
		in, alloc, value, upper := inflationCase(s)
		f := newInflation(in.K())
		checkInflation(t, "random slot", f, in, alloc, value, upper)
		n, m := checkBrackets(t, "random slot", s, f, in, alloc, value, upper)
		accepted, tried = accepted+n, tried+m
	}
	// Neither all brackets nor none: the narrow ones must be refused.
	if accepted == 0 || accepted == tried {
		t.Fatalf("verify accepted %d of %d brackets", accepted, tried)
	}
}

// FuzzGainInflation is TestGainInflationFastForward's random slots over
// fuzzed seeds.
func FuzzGainInflation(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := rng.New(seed)
		in, alloc, value, upper := inflationCase(s)
		f := newInflation(in.K())
		checkInflation(t, "fuzzed slot", f, in, alloc, value, upper)
		checkBrackets(t, "fuzzed slot", s, f, in, alloc, value, upper)
	})
}
