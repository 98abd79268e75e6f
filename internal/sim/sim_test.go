package sim

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/sensing"
	"femtocr/internal/trace"
	"femtocr/internal/video"
)

func singleNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func interferingNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSchemeString(t *testing.T) {
	if Proposed.String() != "Proposed" || Heuristic1.String() != "Heuristic 1" ||
		Heuristic2.String() != "Heuristic 2" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme name wrong")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil network err = %v", err)
	}
	net := singleNet(t)
	if _, err := Run(net, Options{GOPs: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative GOPs err = %v", err)
	}
	if _, err := Run(net, Options{Scheme: Scheme(99)}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown scheme err = %v", err)
	}
	if _, err := Run(net, Options{DualTrace: -5}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative DualTrace err = %v", err)
	}
	for _, p := range []Prior{-1, BeliefPrior + 1} {
		if _, err := Run(net, Options{Prior: p}); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("unknown prior %d err = %v", p, err)
		}
	}
	broken := *net
	broken.Gamma = 2
	if _, err := Run(&broken, Options{}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	net := singleNet(t)
	a, err := Run(net, Options{Seed: 5, GOPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, Options{Seed: 5, GOPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.PerUserPSNR {
		if a.PerUserPSNR[j] != b.PerUserPSNR[j] {
			t.Fatalf("same seed diverged: %v vs %v", a.PerUserPSNR, b.PerUserPSNR)
		}
	}
	c, err := Run(net, Options{Seed: 6, GOPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanPSNR == c.MeanPSNR {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRunBasicAccounting(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOPs != 7 {
		t.Fatalf("GOPs = %d, want 7", res.GOPs)
	}
	if res.Slots != 7*net.T {
		t.Fatalf("Slots = %d, want %d", res.Slots, 7*net.T)
	}
	if len(res.PerUserPSNR) != net.K() {
		t.Fatalf("PerUserPSNR len %d", len(res.PerUserPSNR))
	}
	sum := 0.0
	for j, p := range res.PerUserPSNR {
		alpha := net.Users[j].Seq.RD.Alpha
		ceiling := net.Users[j].Seq.MaxPSNR()
		if p < alpha-1e-9 || p > ceiling+1e-9 {
			t.Fatalf("user %d PSNR %v outside [%v, %v]", j, p, alpha, ceiling)
		}
		sum += p
	}
	if math.Abs(res.MeanPSNR-sum/float64(net.K())) > 1e-9 {
		t.Fatalf("MeanPSNR %v inconsistent", res.MeanPSNR)
	}
}

// TestQualityImproves: with channels available, the proposed scheme must
// deliver video above the base quality.
func TestQualityImproves(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 3, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	baseMean := 0.0
	for _, u := range net.Users {
		baseMean += u.Seq.RD.Alpha
	}
	baseMean /= float64(net.K())
	if res.MeanPSNR < baseMean+1 {
		t.Fatalf("mean PSNR %v barely above base %v: nothing delivered", res.MeanPSNR, baseMean)
	}
}

// TestProposedBeatsHeuristicsSingle reproduces the qualitative claim of
// Fig. 3: the proposed scheme achieves the best average quality.
func TestProposedBeatsHeuristicsSingle(t *testing.T) {
	net := singleNet(t)
	means := make(map[Scheme]float64)
	for _, sch := range []Scheme{Proposed, Heuristic1, Heuristic2} {
		// Average a few seeds to suppress noise.
		sum := 0.0
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 10, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		means[sch] = sum / 5
	}
	if means[Proposed] <= means[Heuristic1] || means[Proposed] <= means[Heuristic2] {
		t.Fatalf("proposed %v not best: H1 %v, H2 %v",
			means[Proposed], means[Heuristic1], means[Heuristic2])
	}
}

// TestInterferingOrderingAndBound reproduces the qualitative claims of
// Fig. 6(a): Proposed > Heuristic 2 > Heuristic 1, and the upper bound sits
// above the proposed curve by a small margin.
func TestInterferingOrderingAndBound(t *testing.T) {
	net := interferingNet(t)
	means := make(map[Scheme]float64)
	var bound float64
	for _, sch := range []Scheme{Proposed, Heuristic1, Heuristic2} {
		sum, bsum := 0.0, 0.0
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 4, Scheme: sch, TrackBound: sch == Proposed})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
			bsum += res.BoundPSNR
		}
		means[sch] = sum / 3
		if sch == Proposed {
			bound = bsum / 3
		}
	}
	if means[Proposed] <= means[Heuristic1] || means[Proposed] <= means[Heuristic2] {
		t.Fatalf("proposed %v not best: H1 %v, H2 %v", means[Proposed], means[Heuristic1], means[Heuristic2])
	}
	if means[Heuristic2] <= means[Heuristic1] {
		t.Fatalf("paper ordering violated: H2 %v <= H1 %v", means[Heuristic2], means[Heuristic1])
	}
	if bound < means[Proposed] {
		t.Fatalf("upper bound %v below proposed %v", bound, means[Proposed])
	}
	if bound > means[Proposed]+3 {
		t.Fatalf("upper bound %v implausibly loose vs proposed %v", bound, means[Proposed])
	}
}

// TestBoundWithoutGreedy: where the greedy of Table III does not allocate,
// Proposed's slot solve is the optimum, so its bound trajectory is the
// realized quality. On the single-FBS and the non-interfering cells,
// whole and sharded, BoundPSNR equals MeanPSNR bit for bit (each user's
// bound its quality), and tracking the bound moves no MeanPSNR bit. On a
// metro that mixes single-FBS and interfering shards the bound stays at or
// above the mean. The other schemes track no bound.
func TestBoundWithoutGreedy(t *testing.T) {
	bits := math.Float64bits
	trio := video.PaperTrio()
	noninterf, err := netmodel.NewNetwork(netmodel.DefaultConfig(),
		netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		net  *netmodel.Network
	}{{"single", singleNet(t)}, {"noninterfering", noninterf}} {
		plain, err := Run(tc.net, Options{Seed: 1, GOPs: 4})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 1, GOPs: 4, TrackBound: true}
		res, err := Run(tc.net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bits(res.MeanPSNR) != bits(plain.MeanPSNR) {
			t.Errorf("%s: MeanPSNR %v with the bound tracked, %v without", tc.name, res.MeanPSNR, plain.MeanPSNR)
		}
		if bits(res.BoundPSNR) != bits(res.MeanPSNR) {
			t.Errorf("%s: BoundPSNR %v, MeanPSNR %v", tc.name, res.BoundPSNR, res.MeanPSNR)
		}
		for j, v := range res.PerUserPSNR {
			if len(res.PerUserBound) != len(res.PerUserPSNR) || bits(res.PerUserBound[j]) != bits(v) {
				t.Fatalf("%s: per-user bounds %v, qualities %v", tc.name, res.PerUserBound, res.PerUserPSNR)
			}
		}
		sh, err := RunSharded(tc.net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bits(sh.BoundPSNR) != bits(sh.MeanPSNR) {
			t.Errorf("%s sharded: BoundPSNR %v, MeanPSNR %v", tc.name, sh.BoundPSNR, sh.MeanPSNR)
		}
	}

	metro, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.MetroPoissonSpec(24, 3))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RunSharded(metro, Options{Seed: 7, GOPs: 1, TrackBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if sh.BoundPSNR < sh.MeanPSNR {
		t.Errorf("metro: BoundPSNR %v below MeanPSNR %v", sh.BoundPSNR, sh.MeanPSNR)
	}

	for _, sch := range []Scheme{Heuristic1, Heuristic2, RoundRobin, MaxThroughput} {
		res, err := Run(interferingNet(t), Options{Seed: 1, GOPs: 1, Scheme: sch, TrackBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.PerUserBound != nil || res.BoundPSNR != 0 {
			t.Errorf("%v: bound %v (per user %v), want none", sch, res.BoundPSNR, res.PerUserBound)
		}
	}
}

// TestCollisionProtection: over a long run the realized collision rate
// stays near the threshold gamma.
func TestCollisionProtection(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 2, GOPs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionRate > net.Gamma+0.04 {
		t.Fatalf("collision rate %v well above gamma %v", res.CollisionRate, net.Gamma)
	}
	if res.CollisionRate == 0 {
		t.Fatal("zero collisions: access rule looks inert")
	}
}

// TestCollisionBudgetPerChannel checks eq. (6) channel by channel: on the
// single and the interfering cell, at three utilizations and under every
// fusion prior, each channel's conditional collision rate over its busy
// slots must stay within four binomial standard errors of gamma. The
// reported CollisionRate, a maximum over the channels, is biased upward
// and cannot be held to gamma this way. Under -race the runs shrink.
func TestCollisionBudgetPerChannel(t *testing.T) {
	gops := 100
	if raceEnabled {
		gops = 20
	}
	worstZ, collided := math.Inf(-1), false
	for _, cell := range []struct {
		name string
		spec netmodel.TopologySpec
	}{
		{"single", netmodel.PaperSingleSpec()},
		{"interfering", netmodel.PaperInterferingSpec()},
	} {
		for _, eta := range []float64{0.3, 0.5, 0.7} {
			cfg, err := netmodel.DefaultConfig().WithUtilization(eta)
			if err != nil {
				t.Fatal(err)
			}
			net, err := netmodel.NewNetwork(cfg, cell.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, prior := range []Prior{StationaryPrior, EstimatedPrior, BeliefPrior} {
				opts := Options{Seed: 7, GOPs: gops, Prior: prior}
				e, err := newEngine(net, opts.withDefaults())
				if err != nil {
					t.Fatal(err)
				}
				for slot := 0; slot < gops*net.T; slot++ {
					if err := e.step(slot); err != nil {
						t.Fatal(err)
					}
				}
				g, tr := net.Gamma, e.front.tracker
				for m := 1; m <= net.Band.M(); m++ {
					busy := tr.BusySlots(m)
					if busy == 0 {
						continue
					}
					rate := tr.ConditionalRate(m)
					sd := math.Sqrt(g * (1 - g) / float64(busy))
					worstZ = max(worstZ, (rate-g)/sd)
					collided = collided || rate > 0
					if rate > g+4*sd {
						t.Errorf("%s eta=%v prior %d channel %d: %v collisions per busy slot over %d busy slots, gamma %v",
							cell.name, eta, prior, m, rate, busy, g)
					}
				}
			}
		}
	}
	if !collided {
		t.Fatal("no collision on any channel: the access rule looks inert")
	}
	t.Logf("worst per-channel z = %.2f", worstZ)
}

// TestDualTraceCapture: the Fig. 4(a) trace has the right shape — one
// column per resource, settling over iterations.
func TestDualTraceCapture(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 1, DualTrace: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DualTrace) < 100 {
		t.Fatalf("trace has %d rows", len(res.DualTrace))
	}
	for _, row := range res.DualTrace {
		if len(row) != 2 {
			t.Fatalf("trace row has %d entries, want 2 (lambda0, lambda1)", len(row))
		}
		for _, l := range row {
			if l < 0 || math.IsNaN(l) {
				t.Fatalf("invalid dual value %v", l)
			}
		}
	}
	// Settling: late movement much smaller than early movement.
	n := len(res.DualTrace)
	early := math.Abs(res.DualTrace[1][0]-res.DualTrace[0][0]) +
		math.Abs(res.DualTrace[1][1]-res.DualTrace[0][1])
	late := math.Abs(res.DualTrace[n-1][0]-res.DualTrace[n-2][0]) +
		math.Abs(res.DualTrace[n-1][1]-res.DualTrace[n-2][1])
	if late > early {
		t.Fatalf("dual trace not settling: early %v, late %v", early, late)
	}
}

func TestDualTraceNotCapturedForHeuristics(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 1, Scheme: Heuristic1, DualTrace: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.DualTrace != nil {
		t.Fatal("heuristic run captured a dual trace")
	}
}

// TestDualSolverMatchesEngineSlots cross-checks the paper's distributed
// algorithm against the engine on the engine's own problems: on every slot
// of the single-FBS and two-FBS non-interfering cells, the cold
// DualSolver.SolveInto objective of the slot's snapshot must be within
// TestDualNearOptimal's 2e-2 of the equilibrium allocation the engine
// solved on it.
func TestDualSolverMatchesEngineSlots(t *testing.T) {
	trio := video.PaperTrio()
	noninterf, err := netmodel.NewNetwork(netmodel.DefaultConfig(),
		netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	dual := core.NewDualSolver()
	for _, net := range []*netmodel.Network{singleNet(t), noninterf} {
		alloc := core.NewAllocation(net.K())
		slots, identical := 0, 0
		for _, seed := range []uint64{4, 7, 1000} {
			opts := Options{Seed: seed, GOPs: 6}
			e, err := newEngine(net, opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < opts.GOPs*net.T; slot++ {
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
				sa := &e.stage.out
				if err := dual.SolveInto(sa.Instance, alloc); err != nil {
					t.Fatalf("%d FBSs seed %d slot %d: %v", net.NumFBS, seed, slot, err)
				}
				ev, dv := sa.Alloc.Objective(sa.Instance), alloc.Objective(sa.Instance)
				if math.Abs(ev-dv) > 2e-2 {
					t.Fatalf("%d FBSs seed %d slot %d: dual objective %v vs equilibrium %v", net.NumFBS, seed, slot, dv, ev)
				}
				slots++
				if math.Float64bits(ev) == math.Float64bits(dv) {
					identical++
				}
			}
		}
		t.Logf("%d FBSs: %d of %d slot objectives bit-identical", net.NumFBS, identical, slots)
	}
}

// TestMoreChannelsHelp: the Fig. 4(b) trend — quality grows with M.
func TestMoreChannelsHelp(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	mean := func(m int) float64 {
		cfg.M = m
		net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for seed := uint64(1); seed <= 4; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 8})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		return sum / 4
	}
	if lo, hi := mean(4), mean(12); lo >= hi {
		t.Fatalf("M=4 gives %v >= M=12 gives %v; more channels must help", lo, hi)
	}
}

// TestLowerUtilizationHelps: the Fig. 4(c)/6(a) trend — quality falls as
// primary-user utilization rises.
func TestLowerUtilizationHelps(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	mean := func(eta float64) float64 {
		c2, err := cfg.WithUtilization(eta)
		if err != nil {
			t.Fatal(err)
		}
		net, err := netmodel.NewNetwork(c2, netmodel.PaperSingleSpec())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for seed := uint64(1); seed <= 4; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 8})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		return sum / 4
	}
	if lo, hi := mean(0.7), mean(0.3); lo >= hi {
		t.Fatalf("eta=0.7 gives %v >= eta=0.3 gives %v; lower utilization must help", lo, hi)
	}
}

// TestSensorPolicies: all assignment policies run and give sane results.
func TestSensorPolicies(t *testing.T) {
	net := singleNet(t)
	for _, pol := range []sensing.AssignmentPolicy{
		sensing.RoundRobin, sensing.RandomAssign, sensing.Stratified,
	} {
		res, err := Run(net, Options{Seed: 1, GOPs: 3, SensorPolicy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.MeanPSNR <= 0 {
			t.Fatalf("%v: mean PSNR %v", pol, res.MeanPSNR)
		}
	}
}

// TestNonInterferingMultiFBS: the Table II case runs and every FBS's users
// get served.
func TestNonInterferingMultiFBS(t *testing.T) {
	trio := video.PaperTrio()
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, Options{Seed: 1, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Both femtocells should deliver: per-FBS mean above base.
	for i := 1; i <= 2; i++ {
		base, got, cnt := 0.0, 0.0, 0
		for j, u := range net.Users {
			if u.FBS == i {
				base += u.Seq.RD.Alpha
				got += res.PerUserPSNR[j]
				cnt++
			}
		}
		if got <= base {
			t.Fatalf("FBS %d users received nothing: %v <= %v", i, got/float64(cnt), base/float64(cnt))
		}
	}
}

// TestExpectedChannelsDiagnostic: G_t averages within (0, M].
func TestExpectedChannelsDiagnostic(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanExpectedChannels <= 0 || res.MeanExpectedChannels > float64(net.Band.M()) {
		t.Fatalf("mean expected channels %v outside (0, %d]", res.MeanExpectedChannels, net.Band.M())
	}
}

// TestTraceRecording: the optional recorder captures every slot and user
// event with consistent accounting.
func TestTraceRecording(t *testing.T) {
	net := singleNet(t)
	var rec trace.Recorder
	res, err := Run(net, Options{Seed: 1, GOPs: 3, Recorder: &rec})
	if err != nil {
		t.Fatal(err)
	}
	slots := rec.Slots()
	users := rec.Users()
	if len(slots) != res.Slots {
		t.Fatalf("recorded %d slot events for %d slots", len(slots), res.Slots)
	}
	if len(users) != res.Slots*net.K() {
		t.Fatalf("recorded %d user events, want %d", len(users), res.Slots*net.K())
	}
	summary := rec.Summarize()
	if summary.Slots != res.Slots {
		t.Fatalf("summary slots %d", summary.Slots)
	}
}

// TestEstimatedUtilizationConverges: learning eta online costs little
// quality versus knowing it, and protection still holds over a long run.
func TestEstimatedUtilizationConverges(t *testing.T) {
	net := singleNet(t)
	var known, learned, coll float64
	const runs = 4
	for seed := uint64(1); seed <= runs; seed++ {
		a, err := Run(net, Options{Seed: seed, GOPs: 50})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(net, Options{Seed: seed, GOPs: 50, Prior: EstimatedPrior})
		if err != nil {
			t.Fatal(err)
		}
		known += a.MeanPSNR
		learned += b.MeanPSNR
		coll += b.CollisionRate
	}
	known /= runs
	learned /= runs
	coll /= runs
	if known-learned > 0.5 {
		t.Fatalf("learning eta costs %v dB (known %v, learned %v)", known-learned, known, learned)
	}
	if coll > net.Gamma+0.06 {
		t.Fatalf("estimated prior broke protection: %v", coll)
	}
}

// TestFairnessClaim: the paper's Fig. 3 discussion — the proposed scheme
// distributes quality gains more evenly than Heuristic 2, whose
// multiuser-diversity grants starve the weakest user.
func TestFairnessClaim(t *testing.T) {
	net := singleNet(t)
	fairness := func(sch Scheme) float64 {
		sum := 0.0
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 15, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.FairnessIndex
		}
		return sum / 5
	}
	prop := fairness(Proposed)
	h2 := fairness(Heuristic2)
	if prop <= h2 {
		t.Fatalf("proposed fairness %v not above Heuristic 2's %v", prop, h2)
	}
	if prop < 1.0/3 || prop > 1 {
		t.Fatalf("fairness index %v outside [1/K, 1]", prop)
	}
}

// TestOFDMScenarioRuns: the frequency-selective PHY drives the full
// pipeline; diversity should not hurt quality at the same calibration.
func TestOFDMScenarioRuns(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.OFDMSubcarriers = 16
	net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, Options{Seed: 1, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	flatNet, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(flatNet, Options{Seed: 1, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR < flat.MeanPSNR-0.5 {
		t.Fatalf("OFDM %v clearly below flat Rayleigh %v", res.MeanPSNR, flat.MeanPSNR)
	}
}

// TestSchemeFrontier: the fairness-efficiency frontier end to end —
// max-throughput posts the best mean, proportional fairness the best
// fairness, round robin trails on mean.
func TestSchemeFrontier(t *testing.T) {
	net := singleNet(t)
	type point struct{ mean, fair float64 }
	measure := func(sch Scheme) point {
		var p point
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 15, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			p.mean += res.MeanPSNR / 5
			p.fair += res.FairnessIndex / 5
		}
		return p
	}
	pf := measure(Proposed)
	mt := measure(MaxThroughput)
	rr := measure(RoundRobin)
	if pf.fair <= mt.fair {
		t.Fatalf("proportional fairness index %v not above max-throughput %v", pf.fair, mt.fair)
	}
	if rr.mean > pf.mean && rr.mean > mt.mean {
		t.Fatalf("blind round robin beats both informed schemes: %v", rr.mean)
	}
	t.Logf("mean/fairness: PF %.2f/%.3f, MaxTP %.2f/%.3f, RR %.2f/%.3f",
		pf.mean, pf.fair, mt.mean, mt.fair, rr.mean, rr.fair)
}
