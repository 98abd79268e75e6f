package sim

// Metamorphic tests: random valid configurations must always produce sane
// results — PSNRs inside [alpha, ceiling], collision rates bounded by the
// budget plus sampling noise, determinism per seed — across the whole
// parameter space, not just the paper's operating point.

import (
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
)

// randomConfig draws a valid random configuration.
func randomConfig(s *rng.Stream) netmodel.Config {
	cfg := netmodel.DefaultConfig()
	cfg.M = 2 + s.IntN(10)
	cfg.B0 = 0.1 + 0.5*s.Float64()
	cfg.B1 = 0.1 + 0.5*s.Float64()
	cfg.P10 = 0.05 + 0.5*s.Float64()
	// eta in [0.1, 0.8], feasible for the drawn P10 by construction below.
	eta := 0.1 + 0.7*s.Float64()
	p01 := eta * cfg.P10 / (1 - eta)
	if p01 > 1 {
		p01 = 1
	}
	cfg.P01 = p01
	cfg.Gamma = 0.05 + 0.4*s.Float64()
	cfg.Eps = 0.05 + 0.4*s.Float64()
	cfg.Delta = 0.05 + 0.4*s.Float64()
	cfg.T = 2 + s.IntN(15)
	cfg.Seed = s.Uint64()
	return cfg
}

func TestRandomConfigsInvariants(t *testing.T) {
	root := rng.New(2027)
	err := quick.Check(func(trial uint16) bool {
		s := root.SplitIndex("cfg", int(trial%64))
		cfg := randomConfig(s)
		net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		if err != nil {
			t.Logf("config rejected (acceptable): %v", err)
			return true
		}
		scheme := []Scheme{Proposed, Heuristic1, Heuristic2, RoundRobin}[s.IntN(4)]
		res, err := Run(net, Options{Seed: s.Uint64(), GOPs: 3, Scheme: scheme})
		if err != nil {
			t.Logf("run failed for %+v: %v", cfg, err)
			return false
		}
		for j, p := range res.PerUserPSNR {
			lo := net.Users[j].Seq.RD.Alpha
			hi := net.Users[j].Seq.MaxPSNR()
			if math.IsNaN(p) || p < lo-1e-9 || p > hi+1e-9 {
				t.Logf("user %d PSNR %v outside [%v, %v]", j, p, lo, hi)
				return false
			}
		}
		if res.CollisionRate < 0 || res.CollisionRate > 1 {
			return false
		}
		if res.FairnessIndex < 0 || res.FairnessIndex > 1+1e-9 {
			return false
		}
		if res.MinUserPSNR > res.MeanPSNR+1e-9 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 24})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomConfigsCollisionBudget: over a longer horizon, random configs
// keep realized collisions near their gamma.
func TestRandomConfigsCollisionBudget(t *testing.T) {
	root := rng.New(2028)
	for trial := 0; trial < 6; trial++ {
		s := root.SplitIndex("cfg", trial)
		cfg := randomConfig(s)
		net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		if err != nil {
			continue
		}
		res, err := Run(net, Options{Seed: 1, GOPs: 600 / cfg.T, Scheme: Heuristic1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Max over M channels of a ~600-slot estimate: allow generous noise.
		if res.CollisionRate > cfg.Gamma+0.08 {
			t.Fatalf("trial %d: collision %v far above gamma %v (cfg %+v)",
				trial, res.CollisionRate, cfg.Gamma, cfg)
		}
	}
}
