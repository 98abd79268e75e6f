package core

import (
	"fmt"
	"math"
	"testing"

	"femtocr/internal/rng"
)

// The association polish skips its flip round when weak duality at the
// fills' prices bounds every flip's gain within the acceptance threshold
// (polishGap). The bound is only sound with its rounding margin, so these
// tests re-fill every single flip of the states the polish is handed — the
// equilibrium and dual solvers' entry states, and those states with a few
// users flipped — and check the computed gain against the bound, on
// instances built to stress the margin.

// certInstance is memoInstance with two more stresses one time in three
// each: qualities near 1, where log W is near zero and of either sign, and
// encoding ceilings a sliver above W, which bind below a full share and
// leave the fills' budgets not quite spent.
func certInstance(s *rng.Stream, n, maxMembers int) *Instance {
	in := memoInstance(s, n, maxMembers)
	switch s.IntN(3) {
	case 0:
		for j := range in.W {
			w := 0.5 + s.Float64()
			if in.WMax != nil {
				in.WMax[j] += w - in.W[j]
			}
			in.W[j] = w
		}
	case 1:
		in.WMax = make([]float64, in.K())
		for j, w := range in.W {
			in.WMax[j] = w + 0.3*s.Float64()*(in.R0[j]+in.effR1(j))
		}
	}
	return in
}

// certTally counts the states and outcomes of certificate checks.
type certTally struct {
	states, certified, improving int
}

// check fills alloc's association on ws and checks the certificate there:
// every flip's computed gain v - cur must be within gap+margin, and when
// the certificate holds, the literal polish round must reject every flip.
// On the way it holds ObjectiveLogW to Objective and to the objective
// polishGap sums, bit for bit.
func (c *certTally) check(t *testing.T, what string, in *Instance, alloc *Allocation, ws *solveWorkspace) {
	t.Helper()
	fillResources(in, alloc, ws)
	gap, margin, obj := polishGap(in, alloc, ws)
	bound := gap + margin
	certified := bound <= polishTol
	cur := alloc.ObjectiveLogW(in, ws.logW)
	if plain := alloc.Objective(in); math.Float64bits(cur) != math.Float64bits(plain) {
		t.Fatalf("%s: ObjectiveLogW %v, Objective %v", what, cur, plain)
	}
	if math.Float64bits(obj) != math.Float64bits(cur) {
		t.Fatalf("%s: polishGap's objective %v, ObjectiveLogW %v", what, obj, cur)
	}
	c.states++
	if certified {
		c.certified++
	}
	improving := false
	for j := range alloc.MBS {
		alloc.MBS[j] = !alloc.MBS[j]
		fillBand(in, alloc, 0, ws)
		fillBand(in, alloc, in.FBS[j], ws)
		v := alloc.ObjectiveLogW(in, ws.logW)
		alloc.MBS[j] = !alloc.MBS[j]
		fillBand(in, alloc, 0, ws)
		fillBand(in, alloc, in.FBS[j], ws)
		if v > cur+polishTol {
			improving = true
			if certified {
				t.Fatalf("%s: certified (gap %v, margin %v) but flipping user %d of %d gains %v",
					what, gap, margin, j, in.K(), v-cur)
			}
		}
		if !math.IsNaN(bound) && v-cur > bound*(1+1e-9) {
			t.Fatalf("%s: flipping user %d of %d gains %v, beyond gap %v + margin %v",
				what, j, in.K(), v-cur, gap, margin)
		}
	}
	if improving {
		c.improving++
	}
}

// dualEntry is the state DualSolver hands its polish: each user on the
// branch with the better value at the final prices, water-filled.
func dualEntry(in *Instance, ws *solveWorkspace, lambda []float64) *Allocation {
	floor := NewDualSolver().lambdaMin
	alloc := NewAllocation(in.K())
	for j := range alloc.MBS {
		l0 := math.Max(lambda[0], floor)
		l1 := math.Max(lambda[in.FBS[j]], floor)
		bv0, _ := ws.u0[j].branchAndRhoWR(l0, ws.logW[j], ws.wr0[j], ws.bl0[j])
		bv1, _ := ws.u1[j].branchAndRhoWR(l1, ws.logW[j], ws.wr1[j], ws.bl1[j])
		alloc.MBS[j] = bv0 > bv1
	}
	return alloc
}

// checkInstance checks both solvers' entry states of in, and each of them
// with 1-3 random users flipped, on a workspace without an epoch.
func (c *certTally) checkInstance(t *testing.T, s *rng.Stream, in *Instance) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := newRefSolver(in)
	eq, _ := ref.enter(false, 0)
	var rep DualReport
	if err := NewDualSolver(WithTrace(&rep)).SolveInto(in, &Allocation{}); err != nil {
		t.Fatal(err)
	}
	ws := ref.ws
	for _, e := range []struct {
		name  string
		alloc *Allocation
	}{{"equilibrium", eq}, {"dual", dualEntry(in, ws, rep.Lambda)}} {
		c.check(t, e.name+" entry", in, e.alloc, ws)
		for f := 1 + s.IntN(3); f > 0; f-- {
			j := s.IntN(in.K())
			e.alloc.MBS[j] = !e.alloc.MBS[j]
		}
		c.check(t, e.name+" entry with flips", in, e.alloc, ws)
	}
}

// TestPolishCertificateSound holds the polish's certificate to re-filled
// flips on random instances of 1-3 FBSs with up to 30 members each.
func TestPolishCertificateSound(t *testing.T) {
	seeds := 400
	if testing.Short() || raceEnabled {
		seeds = 80
	}
	var c certTally
	for seed := 0; seed < seeds; seed++ {
		s := rng.New(uint64(11000 + seed))
		maxMembers := []int{1, 3, 8, 30}[seed%4]
		c.checkInstance(t, s, certInstance(s, 1+s.IntN(3), maxMembers))
	}
	t.Logf("%d states: %d certified, %d with an improving flip", c.states, c.certified, c.improving)
	// The check is vacuous unless both outcomes occur often.
	if c.certified < c.states/4 || c.improving < c.states/20 {
		t.Fatalf("%d states: %d certified, %d with an improving flip; want both common", c.states, c.certified, c.improving)
	}
}

// FuzzPolishCertificate is TestPolishCertificateSound over fuzzed seeds and
// shapes.
func FuzzPolishCertificate(f *testing.F) {
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
		var c certTally
		c.checkInstance(t, s, certInstance(s, int(nFBS), int(maxMembers)))
	})
}

// TestPolishCertificateRefuses pins the two ways the certificate must
// refuse. A user without an encoding ceiling facing an empty band, priced
// at zero, could take an unbounded share there: its branch value is NaN,
// so is the gap, and the polish must run — and move a user onto the band.
// With ceilings the same state has a finite gap, still far above the
// threshold, because a flip wins.
func TestPolishCertificateRefuses(t *testing.T) {
	for _, capped := range []bool{false, true} {
		in := &Instance{
			W:   []float64{30, 30},
			R0:  []float64{0.3, 0.3},
			R1:  []float64{0.3, 0.3},
			PS0: []float64{0.9, 0.9},
			PS1: []float64{0.9, 0.9},
			FBS: []int{1, 1},
			G:   []float64{1},
		}
		if capped {
			in.WMax = []float64{31, 31}
		}
		ws := new(solveWorkspace)
		ws.prepareUsers(in)
		alloc := NewAllocation(2)
		alloc.MBS[0], alloc.MBS[1] = true, true
		fillResources(in, alloc, ws)
		if ws.fillPrice[1] != 0 {
			t.Fatalf("capped=%v: empty band priced %v", capped, ws.fillPrice[1])
		}
		gap, margin, _ := polishGap(in, alloc, ws)
		if !capped && !math.IsNaN(gap) && !math.IsInf(gap, 1) {
			t.Errorf("uncapped users facing a free band: gap %v, want NaN or +Inf", gap)
		}
		if capped && (math.IsNaN(gap) || math.IsInf(gap, 0) || gap+margin <= polishTol) {
			t.Errorf("capped users facing a free band: gap %v + margin %v, want finite and above %v", gap, margin, polishTol)
		}
		before := alloc.ObjectiveLogW(in, ws.logW)
		obj := polishAssociation(in, alloc, 4, ws)
		if alloc.MBS[0] && alloc.MBS[1] {
			t.Errorf("capped=%v: the polish left both users on the MBS", capped)
		}
		after := alloc.ObjectiveLogW(in, ws.logW)
		if !(after > before+polishTol) {
			t.Errorf("capped=%v: objective %v -> %v, want an improvement", capped, before, after)
		}
		if math.Float64bits(obj) != math.Float64bits(after) {
			t.Errorf("capped=%v: the polish returned objective %v for an allocation of objective %v", capped, obj, after)
		}
	}
}

// TestPolishGapReuse holds polishGap with its per-user reuse to polishGap
// on a cleared cache, bit for bit, over greedy-style epochs on one
// workspace: each opens with a solve at G = 0, then perturbs one FBS's G_i
// by a posterior, returns it to an earlier value or keeps it (an accepted
// pair), and hands polishGap the solve's association, now and then with a
// user flipped. Every epoch moves the ceilings to new values beyond reach,
// so every share and price at a G is what it was in an earlier epoch, and
// so is each user's key but for its epoch, while its branch-error bound,
// which reads the ceiling, is not. Two instances alternate, a large one
// and a one-user one, and the epoch counter wraps around between them:
// the large instance's first epoch and its first epoch after the
// wraparound carry the same tag and open with a solve at the same nonzero
// G, the first epoch's only solve, and all but the first user have not
// been written in between.
func TestPolishGapReuse(t *testing.T) {
	seeds := 40
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	hits, terms := 0, 0
	for seed := 0; seed < seeds; seed++ {
		s := rng.New(uint64(12000 + seed))
		large := certInstance(s, 1+s.IntN(3), []int{2, 3, 8, 20}[seed%4])
		small := certInstance(s, 1, 1)
		open := make([]float64, large.N()) // the large instance's opening G in epochs 0 and 3
		for i := range open {
			open[i] = 0.5 + 4*s.Float64()
		}
		ws := new(solveWorkspace)
		for epoch, in := range []*Instance{large, small, small, large, large, small} {
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			if epoch == 2 {
				ws.eqEpoch = math.MaxUint32 - 1 // epoch 3 wraps around to epoch 0's tag
			}
			in.WMax = make([]float64, in.K())
			for j, w := range in.W {
				in.WMax[j] = w + 10 + 10*s.Float64()
			}
			for i := range in.G {
				in.G[i] = 0
				if epoch == 0 || epoch == 3 {
					in.G[i] = open[i]
				}
			}
			ws.eqSeeded = false
			ws.bumpEqEpoch()
			steps := 12
			if epoch == 0 {
				steps = 1
			}
			alloc := NewAllocation(in.K())
			var seen []float64
			for step := 0; step < steps; step++ {
				i, base, keep := 0, in.G[0], true
				if step > 0 {
					i = s.IntN(in.N())
					base, keep = in.G[i], s.IntN(4) == 0
					if len(seen) > 0 && s.IntN(3) == 0 {
						in.G[i] = seen[s.IntN(len(seen))]
					} else {
						in.G[i] += 1 - s.Float64()
						seen = append(seen, in.G[i])
					}
				}
				if _, err := (&EquilibriumSolver{}).solveWS(in, alloc, ws, nil); err != nil {
					t.Fatal(err)
				}
				ws.eqSeeded = ws.eqL0 > 0
				if step > 0 && s.IntN(3) == 0 {
					j := s.IntN(in.K())
					alloc.MBS[j] = !alloc.MBS[j]
				}
				fillResources(in, alloc, ws)
				h := checkPolishReuse(t, fmt.Sprintf("seed %d epoch %d step %d", seed, epoch, step), in, alloc, ws)
				hits, terms = hits+h, terms+in.K()
				if !keep {
					in.G[i] = base
				}
			}
		}
	}
	t.Logf("%d of %d users' terms reused", hits, terms)
	if hits == 0 || hits == terms {
		t.Fatalf("%d of %d users' terms reused; want some, not all", hits, terms)
	}
}

// checkPolishReuse runs polishGap on ws and again on ws with the kept
// terms of in's users cleared, fails unless both give the same gap, margin
// and objective bit for bit, and returns how many users the first run
// reused (a reused user's key is left as it was; a recomputed one's
// changes). The slots past in's users are left as they are.
func checkPolishReuse(t *testing.T, what string, in *Instance, alloc *Allocation, ws *solveWorkspace) int {
	t.Helper()
	before := append([]polishKey(nil), ws.polishKeys...)
	gap, margin, obj := polishGap(in, alloc, ws)
	hits := 0
	for j := 0; j < in.K(); j++ {
		if j < len(before) && ws.polishKeys[j] == before[j] {
			hits++
		}
	}
	for j := 0; j < in.K(); j++ {
		ws.polishKeys[j] = polishKey{}
	}
	g, m, o := polishGap(in, alloc, ws)
	bits := math.Float64bits
	if bits(gap) != bits(g) || bits(margin) != bits(m) || bits(obj) != bits(o) {
		t.Fatalf("%s: reused gap %v margin %v objective %v, recomputed %v %v %v", what, gap, margin, obj, g, m, o)
	}
	return hits
}
