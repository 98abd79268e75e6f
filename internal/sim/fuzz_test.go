package sim

import (
	"math"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

// FuzzExtremeConfigs generalizes TestExtremeConfigs from its hand-picked
// rows to generated ones: the collision threshold gamma, the occupancy
// chain's P01 and P10, the sensing errors eps and delta, the band (M, B0,
// B1), the deadline T, a topology kind and size, the layout and run seed,
// and 0 to 3 users per FBS (two bits of loads each; an FBS without users
// is an empty video group) go through NewNetwork, then one GOP of Run and
// of RunSharded with TrackBound set. Each step must either return an error
// or finite results, never panic, and RunSharded must accept every network
// Run accepts. Sizes are bounded (at most 6 FBSs on the line kinds and 12
// on the grid, 16 channels, 20 slots) so one execution stays in
// milliseconds.
func FuzzExtremeConfigs(f *testing.F) {
	def := netmodel.DefaultConfig()
	path, line := uint8(netmodel.KindInterferingPath), uint8(netmodel.KindNonInterferingLine)
	// The TestExtremeConfigs rows on the paper's three-FBS path (three
	// users each: loads 0x3f), all but the OFDM one: this target keeps
	// flat links.
	type row struct {
		gamma, p01, p10, eps, delta float64
		m                           uint8
		b0, b1                      float64
		t, kind, fbss               uint8
		loads                       uint64
	}
	base := row{def.Gamma, def.P01, def.P10, def.Eps, def.Delta, uint8(def.M), def.B0, def.B1, uint8(def.T), path, 2, 0x3f}
	rows := []func(r *row){
		func(r *row) { r.gamma = 0 },
		func(r *row) { r.gamma = 1 },
		func(r *row) { r.eps, r.delta = 0.5, 0.5 },
		func(r *row) { r.p01, r.p10 = 1, 1e-9 },
		func(r *row) { r.p10 = 0 },
		func(r *row) { r.m = 0 },
		func(r *row) { r.b0 = 0 },
		func(r *row) { r.b1 = 0 },
		func(r *row) { r.t = 1 },
		func(r *row) { r.eps = math.NaN() },
		func(r *row) { r.delta = math.NaN() },
		func(r *row) { r.gamma = math.NaN() },
		func(r *row) { r.b0 = math.NaN() },
		func(r *row) { r.b1 = math.NaN() },
		func(r *row) { r.b0 = math.Inf(1) },
		func(r *row) { r.b1 = math.Inf(1) },
		func(r *row) { r.p01 = math.NaN() },
		func(r *row) { r.p10 = math.NaN() },
		func(r *row) { r.loads = 0x23 },               // FBS without users
		func(r *row) { r.kind, r.loads = line, 0x33 }, // isolated FBS without users
	}
	for _, edit := range rows {
		r := base
		edit(&r)
		f.Add(r.gamma, r.p01, r.p10, r.eps, r.delta, r.m, r.b0, r.b1, r.t, r.kind, r.fbss, uint64(3), r.loads)
	}
	f.Add(def.Gamma, def.P01, def.P10, def.Eps, def.Delta, uint8(def.M), def.B0, def.B1, uint8(def.T),
		uint8(netmodel.KindMetroPoisson), uint8(5), uint64(7), uint64(0x2d7))
	f.Add(def.Gamma, def.P01, def.P10, def.Eps, def.Delta, uint8(def.M), def.B0, def.B1, uint8(def.T),
		uint8(netmodel.KindMetroGrid), uint8(11), uint64(9), uint64(0xfff))
	f.Fuzz(func(t *testing.T, gamma, p01, p10, eps, delta float64, m uint8, b0, b1 float64,
		slots, kind, fbss uint8, seed, loads uint64) {
		cfg := netmodel.DefaultConfig()
		cfg.Gamma, cfg.P01, cfg.P10, cfg.Eps, cfg.Delta = gamma, p01, p10, eps, delta
		cfg.M, cfg.B0, cfg.B1, cfg.T = int(m%17), b0, b1, int(slots%21)
		cfg.Seed = seed
		spec := netmodel.TopologySpec{
			Kind:        netmodel.TopologyKind(kind % 7), // 0 and 6 are invalid kinds
			FBSs:        1 + int(fbss)%6,
			Rows:        1 + int(fbss)%2,
			Cols:        1 + int(fbss/2)%2,
			FBSPerBlock: 1 + int(fbss/4)%3,
		}
		if n, err := spec.NumFBS(); err == nil {
			trio := video.PaperTrio()
			spec.Videos = make([][]video.Sequence, n)
			for i := range spec.Videos {
				for u := 0; u < int(loads>>(2*uint(i%32)))&3; u++ {
					spec.Videos[i] = append(spec.Videos[i], trio[u])
				}
			}
		}
		net, err := netmodel.NewNetwork(cfg, spec)
		if err != nil {
			return
		}
		opts := Options{Seed: seed, GOPs: 1, TrackBound: true}
		res, runErr := Run(net, opts)
		if runErr == nil {
			checkFinite(t, "Run", res.PerUserPSNR, res.MeanPSNR, res.BoundPSNR, res.MinUserPSNR,
				res.FairnessIndex, res.CollisionRate, res.MeanExpectedChannels)
		}
		sh, err := RunSharded(net, opts)
		if err != nil {
			if runErr == nil {
				t.Fatalf("RunSharded: %v, but Run accepts the network", err)
			}
			return
		}
		checkFinite(t, "RunSharded", nil, sh.MeanPSNR, sh.BoundPSNR, sh.MinUserPSNR,
			sh.FairnessIndex, sh.CollisionRate, sh.MeanExpectedChannels)
	})
}
