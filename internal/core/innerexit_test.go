package core

import (
	"math"
	"testing"

	"femtocr/internal/rng"
)

// equilibriumFBS stops its bisection once innerExit proves the choices the
// full-depth bisection ends on. The proof settles each member over the
// current bracket, and the window memo keeps a settled member's result for
// every MBS branch value beyond its threshold, so these tests hold the
// check to more than the mask: they run the literal bisection, apply the
// check at every one of its brackets, and require that every settled
// member's branch value stays on its side of the threshold at every later
// probe and at the 64 floats inside each end of the bracket, where
// rounding makes the branch values wobble.

// exitTally counts the brackets the exit check saw and how it decided them.
type exitTally struct {
	brackets, settled, budget int
}

// checkFBS runs the literal inner bisection of FBS i at common price l0,
// iters steps deep, and checks innerExit at each of its brackets.
func (c *exitTally) checkFBS(t *testing.T, in *Instance, i int, l0 float64, iters int) {
	t.Helper()
	ref := newRefSolver(in)
	run := ref.innerTrace(i, l0, iters)
	ws := ref.ws
	members := ws.byFBS[i]
	ws.gatherFBS(members)
	ws.gV0 = growF(ws.gV0, len(members))
	for b, j := range members {
		ws.gV0[b], _ = ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
	}
	for s := range run.lo {
		lo, hi := run.lo[s], run.hi[s]
		ws.gatherFBS(members)
		for b := range members {
			ws.gBLo[b], ws.gBHi[b] = math.NaN(), math.NaN()
		}
		open := make([]bool, len(members))
		nOpen := 0
		for b := range members {
			if st, _ := ws.settle(b, lo, hi); st == eqOpen {
				open[b] = true
				nOpen++
			}
		}
		decided := ws.innerExit(lo, hi)
		c.brackets++
		if decided {
			if nOpen == 0 {
				c.settled++
			} else {
				c.budget++
			}
			for b, want := range run.mbs {
				if got := ws.gSt[b] == eqDefect; got != want {
					t.Fatalf("FBS %d at l0=%v, step %d of %d: exit decided member %d of %d MBS=%v, full depth %v",
						i, l0, s, iters, b, len(members), got, want)
				}
			}
		}
		// Every settled member's threshold holds over the rest of the run
		// and near both ends of the bracket.
		prices := append(append([]float64(nil), run.mid[s:]...), run.li)
		near := func(p, dir float64) {
			for n := 0; n < 64 && p > lo && p <= hi; n++ {
				prices = append(prices, p)
				p = math.Nextafter(p, dir)
			}
		}
		near(math.Nextafter(lo, hi), hi)
		near(hi, lo)
		for b, j := range members {
			st := ws.gSt[b]
			if open[b] {
				continue // undecided, or forced by the budget rule
			}
			for _, p := range prices {
				bv, _ := ws.u1[j].branchAndRhoWR(p, ws.logW[j], ws.wr1[j], ws.bl1[j])
				if st == eqKeep && bv < ws.gHi[b] || st == eqDefect && bv > ws.gLo[b] {
					t.Fatalf("FBS %d at l0=%v, bracket (%v, %v] of step %d: member %d settled %d with window (%v, %v], branch value %v at %v",
						i, l0, lo, hi, s, b, st, ws.gLo[b], ws.gHi[b], bv, p)
				}
			}
		}
	}
}

// checkInstance checks every FBS of in at a few common prices: around the
// contended range, and now and then anywhere in the solver's price range.
func (c *exitTally) checkInstance(t *testing.T, s *rng.Stream, in *Instance) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	iters := eqIters
	if s.IntN(3) == 0 {
		iters = 1 + s.IntN(60)
	}
	for i := 1; i <= in.N(); i++ {
		for r := 0; r < 3; r++ {
			l0 := math.Pow(10, -4+4*s.Float64())
			if s.IntN(4) == 0 {
				l0 = math.Pow(10, -15+16*s.Float64())
			}
			c.checkFBS(t, in, i, l0, iters)
		}
	}
}

// exitInstance draws a memoInstance or a certInstance: zero, capped,
// uncapped and barely capped members, qualities near 1.
func exitInstance(s *rng.Stream, n, maxMembers int) *Instance {
	if s.IntN(2) == 0 {
		return memoInstance(s, n, maxMembers)
	}
	return certInstance(s, n, maxMembers)
}

// TestInnerExitSound holds the inner bisection's exit check to the literal
// bisection at every bracket, on random FBSs of up to 30 members. Both
// ways the check decides must be common, or the test proves little.
func TestInnerExitSound(t *testing.T) {
	seeds := 300
	if testing.Short() || raceEnabled {
		seeds = 60
	}
	var c exitTally
	for seed := 0; seed < seeds; seed++ {
		s := rng.New(uint64(13000 + seed))
		maxMembers := []int{1, 3, 8, 30}[seed%4]
		c.checkInstance(t, s, exitInstance(s, 1+s.IntN(3), maxMembers))
	}
	t.Logf("%d brackets: %d decided with every member settled, %d by the budget rule", c.brackets, c.settled, c.budget)
	if c.settled < c.brackets/10 || c.budget < c.brackets/20 {
		t.Fatalf("%d brackets: %d all settled, %d by the budget rule; want both common", c.brackets, c.settled, c.budget)
	}
}

// FuzzInnerExit is TestInnerExitSound over fuzzed seeds and shapes.
func FuzzInnerExit(f *testing.F) {
	// seed, FBSs, max members per FBS.
	f.Add(uint64(1), uint8(1), uint8(3))
	f.Add(uint64(2), uint8(3), uint8(30))
	f.Add(uint64(3), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(4), uint8(12))
	f.Fuzz(func(t *testing.T, seed uint64, nFBS, maxMembers uint8) {
		if nFBS < 1 || nFBS > 4 || maxMembers < 1 || maxMembers > 30 {
			return
		}
		s := rng.New(seed)
		var c exitTally
		c.checkInstance(t, s, exitInstance(s, int(nFBS), int(maxMembers)))
	})
}
