package sim

// Failure-injection tests: the engine must behave gracefully at the edges
// of the parameter space — spectrum nearly always busy, collision budget
// zero, hopeless links, near-blind sensors — degrading quality without
// crashing, NaNs, or constraint violations.

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/fading"
	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

func runOK(t *testing.T, cfg netmodel.Config, opts Options) *Result {
	t.Helper()
	net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range res.PerUserPSNR {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("user %d PSNR %v", j, p)
		}
	}
	if math.IsNaN(res.MeanPSNR) || res.CollisionRate < 0 || res.CollisionRate > 1 {
		t.Fatalf("degenerate result: %+v", res)
	}
	return res
}

// TestNearSaturatedSpectrum: primary users occupy ~90% of every channel;
// almost everything must flow through the common channel.
func TestNearSaturatedSpectrum(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.P10 = 0.05
	cfg.P01 = 0.45 // eta = 0.9
	res := runOK(t, cfg, Options{Seed: 1, GOPs: 20})
	base := runOK(t, netmodel.DefaultConfig(), Options{Seed: 1, GOPs: 20})
	if res.MeanPSNR >= base.MeanPSNR {
		t.Fatalf("saturated spectrum %v not worse than default %v", res.MeanPSNR, base.MeanPSNR)
	}
	if res.MeanExpectedChannels >= base.MeanExpectedChannels {
		t.Fatalf("expected channels %v not below default %v",
			res.MeanExpectedChannels, base.MeanExpectedChannels)
	}
}

// TestZeroCollisionBudget: gamma = 0 forbids any risk; only channels whose
// posterior certainty is absolute may be accessed, so licensed throughput
// collapses but the run completes and protection is perfect.
func TestZeroCollisionBudget(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.Gamma = 0
	res := runOK(t, cfg, Options{Seed: 1, GOPs: 30})
	if res.CollisionRate != 0 {
		t.Fatalf("gamma=0 but collision rate %v", res.CollisionRate)
	}
	// With epsilon, delta > 0 no posterior reaches certainty, so no licensed
	// channel is ever accessed.
	if res.MeanExpectedChannels != 0 {
		t.Fatalf("gamma=0 accessed %v expected channels", res.MeanExpectedChannels)
	}
	// The common channel still delivers something.
	base := 0.0
	for _, u := range mustNet(t, cfg).Users {
		base += u.Seq.RD.Alpha
	}
	base /= 3
	if res.MeanPSNR <= base {
		t.Fatalf("common channel delivered nothing: %v <= %v", res.MeanPSNR, base)
	}
}

func mustNet(t *testing.T, cfg netmodel.Config) *netmodel.Network {
	t.Helper()
	net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFullCollisionBudget: gamma = 1 allows accessing everything; quality
// is the best of the sweep and collisions approach the channel busy rate.
func TestFullCollisionBudget(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.Gamma = 1
	res := runOK(t, cfg, Options{Seed: 1, GOPs: 30})
	limited := runOK(t, netmodel.DefaultConfig(), Options{Seed: 1, GOPs: 30})
	if res.MeanPSNR < limited.MeanPSNR {
		t.Fatalf("unlimited budget %v below gamma=0.2 %v", res.MeanPSNR, limited.MeanPSNR)
	}
	// Every channel always accessed: collision rate ~ eta.
	if res.CollisionRate < 0.45 {
		t.Fatalf("gamma=1 collision rate %v suspiciously low (eta=0.571)", res.CollisionRate)
	}
}

// TestHopelessLinks: a decoding threshold far above every link's SINR means
// nothing ever decodes; quality stays exactly at the base layer.
func TestHopelessLinks(t *testing.T) {
	net := mustNet(t, netmodel.DefaultConfig())
	for j := range net.Users {
		u := &net.Users[j]
		for _, link := range []*fading.Link{&u.MBSLink, &u.FBSLink} {
			hopeless, err := fading.NewLink(link.MeanSINRdB(), 60, fading.Rayleigh{})
			if err != nil {
				t.Fatal(err)
			}
			*link = hopeless
		}
	}
	res, err := Run(net, Options{Seed: 1, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range res.PerUserPSNR {
		if math.Abs(p-net.Users[j].Seq.RD.Alpha) > 0.2 {
			t.Fatalf("user %d got %v despite hopeless links (alpha %v)",
				j, p, net.Users[j].Seq.RD.Alpha)
		}
	}
}

// TestNearBlindSensors: epsilon = delta = 0.49 makes sensing almost
// uninformative; the posterior stays near the prior and the system still
// respects the collision budget.
func TestNearBlindSensors(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.Eps, cfg.Delta = 0.49, 0.49
	res := runOK(t, cfg, Options{Seed: 2, GOPs: 100})
	if res.CollisionRate > cfg.Gamma+0.05 {
		t.Fatalf("blind sensing broke protection: %v", res.CollisionRate)
	}
	informed := runOK(t, netmodel.DefaultConfig(), Options{Seed: 2, GOPs: 100})
	if res.MeanPSNR > informed.MeanPSNR+0.2 {
		t.Fatalf("blind sensing %v beats informed %v", res.MeanPSNR, informed.MeanPSNR)
	}
}

// TestSingleUserNetwork: the smallest possible network runs under every
// scheme.
func TestSingleUserNetwork(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	bus := mustNet(t, cfg).Users[0].Seq
	net, err := netmodel.NewNetwork(cfg, netmodel.SingleSpec([]video.Sequence{bus}))
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []Scheme{Proposed, Heuristic1, Heuristic2} {
		res, err := Run(net, Options{Seed: 1, GOPs: 5, Scheme: sch})
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		if res.MeanPSNR < bus.RD.Alpha-1e-9 {
			t.Fatalf("%v: PSNR %v below alpha", sch, res.MeanPSNR)
		}
	}
}

// TestTinyGOPDeadline: T=1 means a single slot per GOP — every boundary
// condition in the engine fires each slot.
func TestTinyGOPDeadline(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	cfg.T = 1
	res := runOK(t, cfg, Options{Seed: 3, GOPs: 30})
	if res.GOPs != 30 || res.Slots != 30 {
		t.Fatalf("accounting with T=1: %+v", res)
	}
}

// TestExtremeConfigs drives the parameter extremes through NewNetwork and
// both engines: each case must either be rejected with an error or run to
// a finite result, never panic or yield a NaN, and RunSharded must accept
// every network Run accepts. A utilization of exactly 1 (P10 = 0) has no
// idle channel for sensing to fuse toward, so NewNetwork must reject it as
// a bad network. A NaN parameter must fail NewNetwork's range checks rather
// than run to finite but meaningless results.
func TestExtremeConfigs(t *testing.T) {
	trio := video.PaperTrio()
	interfering := netmodel.PaperInterferingSpec()
	emptyFBS := netmodel.InterferingPathSpec([][]video.Sequence{trio[:], nil, trio[:2]})
	isolatedEmpty := netmodel.NonInterferingSpec([][]video.Sequence{trio[:], nil, trio[:]})
	cases := []struct {
		name    string
		edit    func(*netmodel.Config)
		spec    netmodel.TopologySpec
		badNet  bool // NewNetwork must fail with ErrBadNetwork
		mustErr bool // NewNetwork must fail
	}{
		{name: "gamma 0", edit: func(c *netmodel.Config) { c.Gamma = 0 }},
		{name: "gamma 1", edit: func(c *netmodel.Config) { c.Gamma = 1 }},
		{name: "eps=delta=0.5", edit: func(c *netmodel.Config) { c.Eps, c.Delta = 0.5, 0.5 }},
		{name: "eta near 1", edit: func(c *netmodel.Config) { c.P01, c.P10 = 1, 1e-9 }},
		{name: "P10 0", edit: func(c *netmodel.Config) { c.P10 = 0 }, badNet: true},
		{name: "M 0", edit: func(c *netmodel.Config) { c.M = 0 }, mustErr: true},
		{name: "B0 0", edit: func(c *netmodel.Config) { c.B0 = 0 }, mustErr: true},
		{name: "B1 0", edit: func(c *netmodel.Config) { c.B1 = 0 }, mustErr: true},
		{name: "T 1", edit: func(c *netmodel.Config) { c.T = 1 }},
		{name: "eps NaN", edit: func(c *netmodel.Config) { c.Eps = math.NaN() }, mustErr: true},
		{name: "delta NaN", edit: func(c *netmodel.Config) { c.Delta = math.NaN() }, mustErr: true},
		{name: "gamma NaN", edit: func(c *netmodel.Config) { c.Gamma = math.NaN() }, badNet: true},
		{name: "B0 NaN", edit: func(c *netmodel.Config) { c.B0 = math.NaN() }, mustErr: true},
		{name: "B1 NaN", edit: func(c *netmodel.Config) { c.B1 = math.NaN() }, mustErr: true},
		{name: "B0 +Inf", edit: func(c *netmodel.Config) { c.B0 = math.Inf(1) }, mustErr: true},
		{name: "B1 +Inf", edit: func(c *netmodel.Config) { c.B1 = math.Inf(1) }, mustErr: true},
		{name: "P01 NaN", edit: func(c *netmodel.Config) { c.P01 = math.NaN() }, mustErr: true},
		{name: "P10 NaN", edit: func(c *netmodel.Config) { c.P10 = math.NaN() }, mustErr: true},
		{name: "OFDM subcarriers -1", edit: func(c *netmodel.Config) { c.OFDMSubcarriers = -1 }, badNet: true},
		{name: "FBS without users", spec: emptyFBS},
		{name: "isolated FBS without users", spec: isolatedEmpty},
	}
	for _, c := range cases {
		cfg := netmodel.DefaultConfig()
		if c.edit != nil {
			c.edit(&cfg)
		}
		spec := c.spec
		if spec.Kind == 0 {
			spec = interfering
		}
		net, err := netmodel.NewNetwork(cfg, spec)
		if c.badNet && !errors.Is(err, netmodel.ErrBadNetwork) {
			t.Errorf("%s: NewNetwork err = %v, want ErrBadNetwork", c.name, err)
		}
		if (c.badNet || c.mustErr) && err == nil {
			t.Errorf("%s: NewNetwork accepted the config", c.name)
		}
		if err != nil {
			t.Logf("%s: NewNetwork: %v", c.name, err)
			continue
		}
		opts := Options{Seed: 3, GOPs: 2, TrackBound: true}
		res, runErr := Run(net, opts)
		if runErr != nil {
			t.Logf("%s: Run: %v", c.name, runErr)
		} else {
			checkFinite(t, c.name+" Run", res.PerUserPSNR, res.MeanPSNR, res.BoundPSNR, res.CollisionRate)
		}
		if res, err := RunSharded(net, opts); err != nil {
			if runErr == nil {
				t.Errorf("%s: RunSharded: %v, but Run accepts the network", c.name, err)
			} else {
				t.Logf("%s: RunSharded: %v", c.name, err)
			}
		} else {
			checkFinite(t, c.name+" RunSharded", nil, res.MeanPSNR, res.BoundPSNR, res.MinUserPSNR,
				res.FairnessIndex, res.CollisionRate, res.MeanExpectedChannels)
		}
	}
}

// checkFinite fails when any of a result's per-user or summary values is
// NaN or infinite.
func checkFinite(t *testing.T, what string, perUser []float64, summary ...float64) {
	t.Helper()
	for j, v := range append(append([]float64(nil), perUser...), summary...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: value %d is %v", what, j, v)
		}
	}
}
