package core

import (
	"math"
	"testing"

	"femtocr/internal/rng"
)

// The equilibrium solver memoizes its per-FBS inner bisection at two levels
// (the exact (fbs, lambda_0, G_i) table and the per-FBS window memo; see
// equilibriumFBS). Both must be invisible: every answer must carry the bits
// a memo-free computation produces. A fresh workspace holds no live epoch,
// so it computes every inner bisection from scratch; it takes the same
// early exits, so both answers are also held to the full-depth bisection of
// refSolver.inner.

// memoInstance builds a random instance over n FBSs with 1..maxMembers
// members each, mixing in the inputs the window memo's comparisons must
// survive: users with zero success probability or zero rate on either
// resource, and (on half the instances) WMax encoding ceilings, some of
// them already reached and some unbounded.
func memoInstance(s *rng.Stream, n, maxMembers int) *Instance {
	in := &Instance{G: make([]float64, n)}
	for i := 1; i <= n; i++ {
		for b := 1 + s.IntN(maxMembers); b > 0; b-- {
			in.W = append(in.W, 25+15*s.Float64())
			in.R0 = append(in.R0, memoDegenerate(s, 0.05+0.45*s.Float64()))
			in.R1 = append(in.R1, memoDegenerate(s, 0.05+0.45*s.Float64()))
			in.PS0 = append(in.PS0, memoDegenerate(s, 0.3+0.7*s.Float64()))
			in.PS1 = append(in.PS1, memoDegenerate(s, 0.3+0.7*s.Float64()))
			in.FBS = append(in.FBS, i)
		}
		in.G[i-1] = memoG(s)
	}
	if s.IntN(2) == 0 {
		in.WMax = make([]float64, in.K())
		for j, w := range in.W {
			switch s.IntN(8) {
			case 0:
				in.WMax[j] = w // ceiling already reached: zero share cap
			case 1:
				in.WMax[j] = math.Inf(1)
			default:
				in.WMax[j] = w + 10*s.Float64()
			}
		}
	}
	return in
}

// memoDegenerate returns v, or zero one time in six.
func memoDegenerate(s *rng.Stream, v float64) float64 {
	if s.IntN(6) == 0 {
		return 0
	}
	return v
}

// memoG draws an expected-channel count, zero one time in eight.
func memoG(s *rng.Stream) float64 {
	if s.IntN(8) == 0 {
		return 0
	}
	return 5 * s.Float64()
}

// memoWalk drives one long-lived workspace through the price sequences the
// solver produces — cold outer bisections, warm brackets around a seed,
// random jumps and small steps of lambda_0 — interleaved with G_i changes
// (including returns to an earlier G_i) and base-instance changes with their
// epoch bump, and checks every equilibriumFBS answer bit for bit against a
// fresh workspace's and the full-depth reference's.
type memoWalk struct {
	t     *testing.T
	s     *rng.Stream
	in    *Instance
	ws    *solveWorkspace
	iters int
	calls int
}

func newMemoWalk(t *testing.T, s *rng.Stream, n, maxMembers int) *memoWalk {
	w := &memoWalk{t: t, s: s, in: memoInstance(s, n, maxMembers), ws: new(solveWorkspace), iters: 45}
	if s.IntN(4) == 0 {
		w.iters = 1 + s.IntN(60)
	}
	if err := w.in.Validate(); err != nil {
		t.Fatal(err)
	}
	w.ws.bumpEqEpoch()
	w.ws.prepareEquilibrium(w.in)
	return w
}

// check runs FBS i's inner equilibrium at l0 on the walk's workspace, on a
// fresh one and on the reference, failing on any difference, and returns
// the mask.
func (w *memoWalk) check(i int, l0 float64) uint64 {
	w.calls++
	mask := w.ws.equilibriumFBS(w.in, i, l0, w.iters)
	fresh := new(solveWorkspace)
	fresh.prepareEquilibrium(w.in)
	if want := fresh.equilibriumFBS(w.in, i, l0, w.iters); mask != want {
		w.t.Fatalf("call %d: FBS %d at l0=%v G=%v: memo %#x, fresh %#x", w.calls, i, l0, w.in.G[i-1], mask, want)
	}
	for b, want := range newRefSolver(w.in).inner(i, l0, w.iters) {
		if got := mask&(1<<uint(b)) != 0; got != want {
			w.t.Fatalf("call %d: FBS %d at l0=%v G=%v member %d: MBS choice %v, reference %v",
				w.calls, i, l0, w.in.G[i-1], b, got, want)
		}
	}
	return mask
}

// demand0 is the solver's common-channel demand at l0, checking every FBS's
// inner equilibrium on the way.
func (w *memoWalk) demand0(l0 float64) float64 {
	total := 0.0
	for i := 1; i <= w.in.N(); i++ {
		mask := w.check(i, l0)
		for b, j := range w.ws.byFBS[i] {
			if mask&(1<<uint(b)) != 0 {
				total += w.ws.u0[j].rhoAtWR(l0, w.ws.wr0[j])
			}
		}
	}
	return total
}

// bisect replays an outer bisection over [lo, hi], expanding hi first.
func (w *memoWalk) bisect(lo, hi float64, iters int) float64 {
	for guard := 0; guard < 60 && w.demand0(hi) > 1; guard++ {
		hi *= 2
	}
	for it := 0; it < iters; it++ {
		mid := 0.5 * (lo + hi)
		if w.demand0(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// step performs one random episode of the walk.
func (w *memoWalk) step() {
	s, in := w.s, w.in
	switch s.IntN(6) {
	case 0: // a greedy-style trial: one FBS's G_i changes, then returns
		i := s.IntN(in.N())
		base := in.G[i]
		in.G[i] = memoG(s)
		w.ws.prepareEquilibrium(in)
		seed := math.Pow(10, -4+3*s.Float64())
		w.bisect(0.5*seed, 2*seed, w.iters/2+4)
		in.G[i] = base
		w.ws.prepareEquilibrium(in)
	case 1: // new base instance of the same shape: a new epoch
		for j := range in.W {
			in.W[j] = 25 + 15*s.Float64()
		}
		w.ws.bumpEqEpoch()
		w.ws.prepareEquilibrium(in)
	case 2: // cold outer bisection from the global bracket
		if w.demand0(eqLambdaFloor) > 1 {
			w.bisect(eqLambdaFloor, 1, w.iters)
		}
	case 3: // warm bracket around a random seed
		seed := math.Pow(10, -4+3*s.Float64())
		w.bisect(0.5*seed, 2*seed, w.iters/2+4)
	case 4: // random jumps across the price range
		for r := 0; r < 8; r++ {
			w.demand0(math.Pow(10, -15+16*s.Float64()))
		}
	default: // small steps around one price
		l0 := math.Pow(10, -4+3*s.Float64())
		for r := 0; r < 8; r++ {
			l0 *= 1 + 0.02*(s.Float64()-0.5)
			w.demand0(l0)
		}
	}
}

// TestEquilibriumMemoMatchesFresh is the bitwise oracle for both memo
// levels: random instances with 1-64 members per FBS, WMax caps and zero
// ps/r members, walked through outer bisections, jumps, G_i changes and
// epoch bumps on one workspace, must reproduce a fresh workspace's mask and
// the full-depth reference's choices at every inner solve.
func TestEquilibriumMemoMatchesFresh(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		s := rng.New(uint64(9000 + seed))
		maxMembers := []int{1, 3, 12, 64}[seed%4]
		w := newMemoWalk(t, s, 1+s.IntN(3), maxMembers)
		for e := 0; e < 12; e++ {
			w.step()
		}
	}
}

// FuzzEquilibriumMemo is TestEquilibriumMemoMatchesFresh over fuzzed seeds,
// shapes and walk lengths.
func FuzzEquilibriumMemo(f *testing.F) {
	// seed, FBSs, max members per FBS, episodes.
	f.Add(uint64(1), uint8(1), uint8(3), uint8(12))
	f.Add(uint64(2), uint8(3), uint8(64), uint8(8))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(16))
	f.Add(uint64(4), uint8(4), uint8(20), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, nFBS, maxMembers, episodes uint8) {
		if nFBS < 1 || nFBS > 4 || maxMembers < 1 || maxMembers > 64 || episodes > 24 {
			return
		}
		w := newMemoWalk(t, rng.New(seed), int(nFBS), int(maxMembers))
		for e := 0; e < int(episodes); e++ {
			w.step()
		}
	})
}
