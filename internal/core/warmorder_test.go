package core

import (
	"fmt"
	"math"
	"testing"

	"femtocr/internal/rng"
)

// A warm equilibrium solve defers its floor probe and the probe of its
// bracket's lower end until its bisection has found no probe over budget
// (solveWS). That order reaches the probed order's clearing price whenever
// MBS demand is monotone in the common price. It is not always monotone,
// so the allocation, not the price, is what the tests below hold to
// refSolver.solve(true, seed), whose enter keeps the probed order.

// nonMonotoneInstance is a two-FBS instance whose MBS demand rises with
// the common price between 0.0033113 and 0.0047863: FBS 1's two users
// swap base stations there.
func nonMonotoneInstance() *Instance {
	return &Instance{
		W:    []float64{3.923827338553146, 7.608475233647596, 8.039746922893833, 30.961674201759624},
		R0:   []float64{0.011009102718957905, 0.08651234332192073, 0.0024135451325057364, 0.3105655670413755},
		R1:   []float64{0.031243651713700707, 2.695408662755853, 2.647347053826082, 3.879719838229275},
		PS0:  []float64{0.7967126723571566, 0.7030907686015095, 0.11725011719795973, 0.7879448235326361},
		PS1:  []float64{0.6177367890362635, 0.33950145604919285, 0.0657863251791781, 0.45828428324870196},
		FBS:  []int{2, 1, 2, 1},
		G:    []float64{0.285705067018659, 0.142614499979711},
		WMax: []float64{3.925797159266209, 7.6884799131846036, 8.216579697536028, 31.970173203820835},
	}
}

// TestOuterDemandNotMonotone: MBS demand can rise with the common price,
// so no probe's verdict implies another's. Warm solves seeded across the
// instance's non-monotone stretch must still write the probed order's
// allocation, bit for bit, whichever price they clear at.
func TestOuterDemandNotMonotone(t *testing.T) {
	in := nonMonotoneInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := newRefSolver(in)
	for _, c := range []struct{ l0, demand float64 }{{0.0033113, 0.9248}, {0.0047863, 3.2473}} {
		if d := ref.demand0(c.l0); math.Abs(d-c.demand) > 5e-5 {
			t.Fatalf("MBS demand at %v reads %v, want %v", c.l0, d, c.demand)
		}
	}
	prices := map[uint64]bool{}
	for _, seed := range []float64{1e-4, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 8e-3, 2e-2, 0.1} {
		want, l0 := newRefSolver(in).solve(true, seed)
		prices[math.Float64bits(l0)] = true
		checkWarmOrder(t, fmt.Sprintf("seed %v", seed), in, seed, want)
	}
	// The reference clears at two prices depending on the seed.
	if len(prices) < 2 {
		t.Fatalf("every seed clears at one price %v: the instance no longer exercises a non-monotone stretch", prices)
	}
}

// checkWarmOrder holds both routes of a warm solve seeded at seed — a
// session carrying it, and a workspace seeded with it the way the greedy
// allocator seeds its Q evaluations — to want, bit for bit.
func checkWarmOrder(t *testing.T, what string, in *Instance, seed float64, want *Allocation) {
	t.Helper()
	e := &EquilibriumSolver{}
	sess := NewSolverSession()
	sess.observe(in)
	sess.l0, sess.haveL0 = seed, true
	got := &Allocation{}
	if _, err := e.SolveWarmInto(in, got, sess); err != nil {
		t.Fatalf("%s: session: %v", what, err)
	}
	requireAlloc(t, what+": session solve", got, want)
	ws := new(solveWorkspace)
	ws.bumpEqEpoch()
	ws.eqSeeded, ws.eqL0 = true, seed
	if _, err := e.solveWS(in, got, ws, nil); err != nil {
		t.Fatalf("%s: seeded workspace: %v", what, err)
	}
	requireAlloc(t, what+": seeded workspace", got, want)
}

// requireAlloc fails unless got and want agree bit for bit.
func requireAlloc(t *testing.T, what string, got, want *Allocation) {
	t.Helper()
	if j := allocDiff(got, want); j >= 0 {
		t.Fatalf("%s: user %d: MBS=%v rho=(%v, %v), want MBS=%v rho=(%v, %v)",
			what, j, got.MBS[j], got.Rho0[j], got.Rho1[j], want.MBS[j], want.Rho0[j], want.Rho1[j])
	}
}

// tinyInstance draws an instance of 1-2 FBSs and 2-4 users from a wide
// range of magnitudes — log-uniform W in [0.5, 50], R0 and R1 in
// [0.001, 5] and G in [0.01, 10], success probabilities uniform on
// [0.05, 1], and on half of them quality ceilings that bind within a
// share — where users swap base stations as the common price moves and
// MBS demand is least often monotone (nonMonotoneInstance came from here).
func tinyInstance(s *rng.Stream) *Instance {
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, s.Float64()) }
	n := 1 + s.IntN(2)
	k := 2 + s.IntN(3)
	in := &Instance{G: make([]float64, n)}
	for j := 0; j < k; j++ {
		in.W = append(in.W, logU(0.5, 50))
		in.R0 = append(in.R0, logU(0.001, 5))
		in.R1 = append(in.R1, logU(0.001, 5))
		in.PS0 = append(in.PS0, 0.05+0.95*s.Float64())
		in.PS1 = append(in.PS1, 0.05+0.95*s.Float64())
		in.FBS = append(in.FBS, 1+j%n)
	}
	for i := range in.G {
		in.G[i] = logU(0.01, 10)
	}
	if s.IntN(2) == 0 {
		in.WMax = make([]float64, k)
		for j, w := range in.W {
			in.WMax[j] = w + s.Float64()*(in.R0[j]+in.R1[j])
		}
	}
	return in
}

// warmOrderRun draws a tiny instance and solves it warm from seeds around
// and far from its cold clearing price, then drives a session through
// slots of the same shape with redrawn qualities and channel counts. Every
// solve must write refSolver.solve's allocation for the session's carried
// state, bit for bit.
func warmOrderRun(t *testing.T, s *rng.Stream) {
	in := tinyInstance(s)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	_, cold := newRefSolver(in).solve(false, 0)
	for r := 0; r < 4; r++ {
		seed := math.Pow(10, -6+8*s.Float64())
		if cold > 0 && r%2 == 0 {
			seed = cold * math.Pow(2, -4+8*s.Float64())
		}
		want, _ := newRefSolver(in).solve(true, seed)
		checkWarmOrder(t, fmt.Sprintf("instance %+v, seed %v", *in, seed), in, seed, want)
	}
	e := &EquilibriumSolver{}
	sess := NewSolverSession()
	got := &Allocation{}
	for slot := 0; slot < 6; slot++ {
		for i := range in.G {
			in.G[i] = math.Pow(10, -2+3*s.Float64())
		}
		if slot%3 == 2 {
			for j := range in.W {
				in.W[j] *= 0.5 + s.Float64()
				if in.WMax != nil {
					in.WMax[j] = in.W[j] + s.Float64()*(in.R0[j]+in.R1[j])
				}
			}
		}
		warm, seed := sess.haveL0, sess.l0
		want, _ := newRefSolver(in).solve(warm, seed)
		if _, err := e.SolveWarmInto(in, got, sess); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		requireAlloc(t, fmt.Sprintf("slot %d (instance %+v, warm=%v, seed %v)", slot, *in, warm, seed), got, want)
	}
}

// TestWarmProbeOrderMatchesReference runs warmOrderRun on a fixed set of
// tiny instances.
func TestWarmProbeOrderMatchesReference(t *testing.T) {
	runs := 400
	if testing.Short() || raceEnabled {
		runs = 50
	}
	for r := 0; r < runs; r++ {
		warmOrderRun(t, rng.New(uint64(9000+r)))
	}
}

// FuzzWarmProbeOrder is TestWarmProbeOrderMatchesReference over fuzzed
// instance seeds.
func FuzzWarmProbeOrder(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		warmOrderRun(t, rng.New(seed))
	})
}

// TestWarmSlackSlot: a warm solve of a slack slot bisects its bracket,
// finds no probe over budget and only then probes the floor. It must still
// report the slot slack — zero prices, no iterations, the carried price
// kept — and write the cold solve's allocation, in the first slack slot
// after a contended one and in the next.
func TestWarmSlackSlot(t *testing.T) {
	slack := trivialInstance()
	contended := trivialInstance()
	contended.WMax = nil // uncapped users claim full shares
	e := &EquilibriumSolver{}
	sess := NewSolverSession()
	warm, cold := &Allocation{}, &Allocation{}
	if _, err := e.SolveWarmInto(contended, warm, sess); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.TrivialSolves != 0 || !sess.haveL0 {
		t.Fatalf("stats %+v, carried price %v: the contended slot was solved slack", st, sess.haveL0)
	}
	carried := sess.l0
	for slot := 1; slot <= 2; slot++ {
		before := sess.Stats()
		if _, err := e.SolveWarmInto(slack, warm, sess); err != nil {
			t.Fatal(err)
		}
		if err := e.SolveInto(slack, cold); err != nil {
			t.Fatal(err)
		}
		requireAlloc(t, fmt.Sprintf("slack slot %d", slot), warm, cold)
		st := sess.Stats()
		if st.TrivialSolves != before.TrivialSolves+1 || st.TotalIters != before.TotalIters {
			t.Fatalf("slack slot %d: stats %+v after %+v; want one more trivial solve and no iterations", slot, st, before)
		}
		if math.Float64bits(sess.l0) != math.Float64bits(carried) || !sess.haveL0 {
			t.Fatalf("slack slot %d: carried price %v (have %v), want %v kept", slot, sess.l0, sess.haveL0, carried)
		}
	}
	// The seeded-workspace route reports slack by leaving the greedy's
	// price seed alone and solving at zero prices: the cold allocation.
	ws := new(solveWorkspace)
	ws.bumpEqEpoch()
	ws.eqSeeded, ws.eqL0 = true, carried
	if _, err := e.solveWS(slack, warm, ws, nil); err != nil {
		t.Fatal(err)
	}
	requireAlloc(t, "seeded workspace, slack slot", warm, cold)
	if math.Float64bits(ws.eqL0) != math.Float64bits(carried) || !ws.eqSeeded {
		t.Fatalf("seeded workspace, slack slot: seed %v (seeded %v), want %v kept", ws.eqL0, ws.eqSeeded, carried)
	}
}
