package sim

import (
	"fmt"
	"math"
	"testing"

	"femtocr/internal/netmodel"
)

// goldenCase is one pinned run: the float64 bits of its MeanPSNR and, under
// TrackBound, of its BoundPSNR (zero otherwise).
type goldenCase struct {
	net       string
	scheme    Scheme
	seed      uint64
	psnrBits  uint64
	boundBits uint64
}

func (g goldenCase) name() string {
	return fmt.Sprintf("%s %v seed %d", g.net, g.scheme, g.seed)
}

// TestGoldenOutputs pins the rate engine's outputs bitwise across commits:
// MeanPSNR (and BoundPSNR where the bound is tracked) for Proposed and the
// four baselines on the paper's single-FBS and interfering cells at two seeds,
// plus sharded metro GOPs with and without the bound. The determinism and
// warm==cold tests compare the engine against itself within one commit; this
// test catches a change that moves every path the same way. The interfering Proposed runs track
// the eq. (23) bound, so they also pin the greedy's bound bits and the
// relaxation solve.
func TestGoldenOutputs(t *testing.T) {
	nets := map[string]*netmodel.Network{"single": singleNet(t), "interfering": interferingNet(t)}
	for _, g := range []goldenCase{
		{"single", Proposed, 1, 0x403ee5ee402bb0cd, 0},
		{"single", Proposed, 2, 0x403ec41e47f25dcb, 0},
		{"single", Heuristic1, 1, 0x403da872b020c49d, 0},
		{"single", Heuristic1, 2, 0x403d9c131d5acb6f, 0},
		{"single", Heuristic2, 1, 0x403e9aaaaaaaaaa8, 0},
		{"single", Heuristic2, 2, 0x403e883c131d5acb, 0},
		{"single", RoundRobin, 1, 0x403e894237fa89e5, 0},
		{"single", RoundRobin, 2, 0x403e7b6f46508dff, 0},
		{"single", MaxThroughput, 1, 0x403eb27983c131d5, 0},
		{"single", MaxThroughput, 2, 0x403eaa27983c131d, 0},
		{"interfering", Proposed, 1, 0x403ea2aed6c56552, 0x403f626e72dc87f0},
		{"interfering", Proposed, 2, 0x403e73a118d2cdc0, 0x403f36a97bb151ab},
		{"interfering", Heuristic1, 1, 0x403d8a060891b004, 0},
		{"interfering", Heuristic1, 2, 0x403d80401463940c, 0},
		{"interfering", Heuristic2, 1, 0x403df8a94d242e6b, 0},
		{"interfering", Heuristic2, 2, 0x403e070a3d70a3d7, 0},
		{"interfering", RoundRobin, 1, 0x403d9bd194237fab, 0},
		{"interfering", RoundRobin, 2, 0x403d9d3a06d3a06c, 0},
		{"interfering", MaxThroughput, 1, 0x403e0619f0fb38a7, 0},
		{"interfering", MaxThroughput, 2, 0x403e0e098ead65b7, 0},
	} {
		opts := Options{Seed: g.seed, GOPs: 4, Scheme: g.scheme}
		opts.TrackBound = g.scheme == Proposed && g.net == "interfering"
		res, err := Run(nets[g.net], opts)
		if err != nil {
			t.Fatalf("%s: %v", g.name(), err)
		}
		checkGolden(t, g, res.MeanPSNR, res.BoundPSNR, opts.TrackBound)
	}

	// One GOP of a 24-FBS Poisson metro through the sharded engine:
	// partitioning, per-shard greedy and the ascending-order fold. 13 of its
	// 17 shards hold one FBS, whose bound trajectory is the realized
	// quality.
	metro, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.MetroPoissonSpec(24, 3))
	if err != nil {
		t.Fatal(err)
	}
	g := goldenCase{"metro24", Proposed, 7, 0x403f8122fedaf1d2, 0x4040109ff420bd70}
	res, err := RunSharded(metro, Options{Seed: g.seed, GOPs: 1, TrackBound: true})
	if err != nil {
		t.Fatalf("%s: %v", g.name(), err)
	}
	checkGolden(t, g, res.MeanPSNR, res.BoundPSNR, true)

	// perfbench's metro city without TrackBound, where Table III solves no
	// eq. (23) slack: seed 1 is perfbench's reference op, seed 2 a second
	// pin of the same path.
	city, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.MetroPoissonSpec(400, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []goldenCase{
		{"metro400", Proposed, 1, 0x403f97932f4026b8, 0},
		{"metro400", Proposed, 2, 0x403fa96b7b6e5c9a, 0},
	} {
		res, err := RunSharded(city, Options{Seed: g.seed, GOPs: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.name(), err)
		}
		checkGolden(t, g, res.MeanPSNR, res.BoundPSNR, false)
	}
}

// checkGolden compares one run's bits against its pinned case.
func checkGolden(t *testing.T, g goldenCase, mean, bound float64, tracked bool) {
	t.Helper()
	var boundBits uint64
	if tracked {
		boundBits = math.Float64bits(bound)
	}
	if got := math.Float64bits(mean); got != g.psnrBits {
		t.Errorf("%s: MeanPSNR bits %#016x (%v), want %#016x (%v)",
			g.name(), got, mean, g.psnrBits, math.Float64frombits(g.psnrBits))
	}
	if boundBits != g.boundBits {
		t.Errorf("%s: BoundPSNR bits %#016x (%v), want %#016x (%v)",
			g.name(), boundBits, bound, g.boundBits, math.Float64frombits(g.boundBits))
	}
}
