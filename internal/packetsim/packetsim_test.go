package packetsim

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

func singleNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil net err = %v", err)
	}
	net := singleNet(t)
	if _, err := Run(net, Options{GOPs: -2}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad GOPs err = %v", err)
	}
	if _, err := Run(net, Options{Scheme: sim.Scheme(42)}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad scheme err = %v", err)
	}
	broken := *net
	broken.T = 0
	if _, err := Run(&broken, Options{}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	net := singleNet(t)
	a, err := Run(net, Options{Seed: 3, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, Options{Seed: 3, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanPSNR != b.MeanPSNR || a.DeliveredBytes != b.DeliveredBytes ||
		a.Retransmissions != b.Retransmissions {
		t.Fatal("same seed produced different packet-level results")
	}
}

func TestRunAccounting(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 1, GOPs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOPs != 8 {
		t.Fatalf("GOPs = %d", res.GOPs)
	}
	if len(res.PerUserPSNR) != net.K() {
		t.Fatalf("per-user len %d", len(res.PerUserPSNR))
	}
	for j, p := range res.PerUserPSNR {
		alpha := net.Users[j].Seq.RD.Alpha
		if p < alpha-1e-9 || p > net.Users[j].Seq.MaxPSNR()+1e-9 {
			t.Fatalf("user %d PSNR %v out of range", j, p)
		}
	}
	if res.DeliveredBytes <= 0 || res.SentPackets <= 0 {
		t.Fatal("nothing was transmitted")
	}
	if res.MeanPSNR <= net.Users[0].Seq.RD.Alpha {
		t.Fatal("no quality improvement: packets not reaching receivers")
	}
}

// TestRateConservation: delivered payload cannot exceed the theoretical
// channel-capacity upper bound of the run.
func TestRateConservation(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 5, GOPs: 10})
	if err != nil {
		t.Fatal(err)
	}
	slots := 10 * net.T
	slotSeconds := float64(net.GOPSize) / net.Users[0].Seq.FPS / float64(net.T)
	// Capacity bound: the common channel plus all M licensed channels at
	// full rate for every slot.
	capBytes := (net.Band.B0() + float64(net.Band.M())*net.Band.B1()) *
		1e6 / 8 * slotSeconds * float64(slots)
	if float64(res.DeliveredBytes) > capBytes {
		t.Fatalf("delivered %d bytes, capacity bound %v", res.DeliveredBytes, capBytes)
	}
}

// TestSchemesDiffer: the three schemes must produce distinct packet-level
// outcomes, with Proposed leading on quality (averaged over seeds).
func TestSchemesDiffer(t *testing.T) {
	net := singleNet(t)
	means := make(map[sim.Scheme]float64)
	for _, sch := range []sim.Scheme{sim.Proposed, sim.Heuristic1, sim.Heuristic2} {
		sum := 0.0
		for seed := uint64(1); seed <= 5; seed++ {
			res, err := Run(net, Options{Seed: seed, GOPs: 8, Scheme: sch})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		means[sch] = sum / 5
	}
	if means[sim.Proposed] <= means[sim.Heuristic2]-0.3 {
		t.Fatalf("proposed %v clearly below H2 %v", means[sim.Proposed], means[sim.Heuristic2])
	}
	if means[sim.Proposed] <= means[sim.Heuristic1]-0.3 {
		t.Fatalf("proposed %v clearly below H1 %v", means[sim.Proposed], means[sim.Heuristic1])
	}
}

// TestMatchesRateBasedEngine: the packet-level and rate-based engines must
// agree on quality within a couple of dB — they model the same system at
// different granularity.
func TestMatchesRateBasedEngine(t *testing.T) {
	net := singleNet(t)
	var pkSum, rateSum float64
	const runs = 5
	for seed := uint64(1); seed <= runs; seed++ {
		pk, err := Run(net, Options{Seed: seed, GOPs: 10})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sim.Run(net, sim.Options{Seed: seed, GOPs: 10})
		if err != nil {
			t.Fatal(err)
		}
		pkSum += pk.MeanPSNR
		rateSum += rt.MeanPSNR
	}
	gap := math.Abs(pkSum-rateSum) / runs
	if gap > 2.5 {
		t.Fatalf("packet-level %v vs rate-based %v: gap %v dB too large",
			pkSum/runs, rateSum/runs, gap)
	}
}

// TestInterferingPacketLevel: the interfering scenario runs with the greedy
// allocator at packet granularity.
func TestInterferingPacketLevel(t *testing.T) {
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, Options{Seed: 2, GOPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR <= 0 || res.DeliveredBytes <= 0 {
		t.Fatal("interfering packet run produced nothing")
	}
}

// TestRetransmissionsHappen: with lossy links, ARQ must fire.
func TestRetransmissionsHappen(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 6, GOPs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions == 0 {
		t.Fatal("no retransmissions over 200 slots of lossy links")
	}
	if res.Retransmissions >= res.SentPackets {
		t.Fatalf("retransmissions %d >= sends %d", res.Retransmissions, res.SentPackets)
	}
}

func TestCollisionRateTracked(t *testing.T) {
	net := singleNet(t)
	res, err := Run(net, Options{Seed: 7, GOPs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollisionRate <= 0 || res.CollisionRate > net.Gamma+0.1 {
		t.Fatalf("collision rate %v implausible (gamma %v)", res.CollisionRate, net.Gamma)
	}
}

// TestAdaptiveRateCutsDrops: re-encoding each GOP near the delivered
// throughput slashes overdue discards without sacrificing quality.
func TestAdaptiveRateCutsDrops(t *testing.T) {
	net := singleNet(t)
	var fixedDrops, adaptDrops int
	var fixedPSNR, adaptPSNR float64
	const runs = 4
	for seed := uint64(1); seed <= runs; seed++ {
		fixed, err := Run(net, Options{Seed: seed, GOPs: 20})
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := Run(net, Options{Seed: seed, GOPs: 20, AdaptiveRate: true})
		if err != nil {
			t.Fatal(err)
		}
		fixedDrops += fixed.DroppedPackets
		adaptDrops += adapt.DroppedPackets
		fixedPSNR += fixed.MeanPSNR
		adaptPSNR += adapt.MeanPSNR
	}
	if adaptDrops >= fixedDrops {
		t.Fatalf("adaptive drops %d not below fixed %d", adaptDrops, fixedDrops)
	}
	if adaptPSNR < fixedPSNR-runs*1.0 {
		t.Fatalf("adaptation cost too much quality: %v vs %v", adaptPSNR/runs, fixedPSNR/runs)
	}
	t.Logf("drops: fixed %d -> adaptive %d; PSNR %.2f -> %.2f",
		fixedDrops, adaptDrops, fixedPSNR/runs, adaptPSNR/runs)
}

// TestGoldenOutputs pins the packet-level engine's outputs bitwise: the
// mean quality as float64 bits and every byte and packet counter, for all
// five schemes on the paper's single-FBS and interfering networks at two
// seeds. The other tests here check determinism and closeness to the rate
// engine, which a silent change of the allocation path would still pass.
func TestGoldenOutputs(t *testing.T) {
	single := singleNet(t)
	interf, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*netmodel.Network{"single": single, "interfering": interf}
	for _, g := range []struct {
		net        string
		scheme     sim.Scheme
		seed       uint64
		psnrBits   uint64
		delivered  int
		sent       int
		retransmit int
		dropped    int
	}{
		{"single", sim.Proposed, 1, 0x403ec24b715f2f83, 145222, 212, 1, 466},
		{"single", sim.Proposed, 2, 0x403eacfac06cb3d0, 141531, 207, 0, 453},
		{"single", sim.Heuristic1, 1, 0x403d7f60099ca889, 88122, 160, 12, 537},
		{"single", sim.Heuristic1, 2, 0x403d70872138a681, 86147, 159, 5, 535},
		{"single", sim.Heuristic2, 1, 0x403e7cc2b7e7aa10, 132342, 203, 6, 473},
		{"single", sim.Heuristic2, 2, 0x403e745f6e6c35fb, 130106, 204, 4, 453},
		{"single", sim.RoundRobin, 1, 0x403e5b6cea55bb65, 131048, 176, 2, 495},
		{"single", sim.RoundRobin, 2, 0x403e5f9cca17577c, 132361, 162, 2, 488},
		{"single", sim.MaxThroughput, 1, 0x403ea29fb8df20d5, 138958, 209, 6, 470},
		{"single", sim.MaxThroughput, 2, 0x403e7e947330c0db, 131834, 197, 1, 460},
		{"interfering", sim.Proposed, 1, 0x403e7fd875bf1094, 386675, 582, 1, 1361},
		{"interfering", sim.Proposed, 2, 0x403e6032f01754b0, 369028, 571, 2, 1388},
		{"interfering", sim.Heuristic1, 1, 0x403d4b18681d6760, 230886, 467, 22, 1622},
		{"interfering", sim.Heuristic1, 2, 0x403d4ca385f33b3c, 232419, 468, 20, 1640},
		{"interfering", sim.Heuristic2, 1, 0x403de30e8c8abd5e, 307785, 451, 6, 1472},
		{"interfering", sim.Heuristic2, 2, 0x403dfc3e7d135115, 321903, 472, 2, 1472},
		{"interfering", sim.RoundRobin, 1, 0x403d76159280117b, 259470, 265, 11, 1617},
		{"interfering", sim.RoundRobin, 2, 0x403d764bb049501c, 260644, 303, 12, 1595},
		{"interfering", sim.MaxThroughput, 1, 0x403dee35c71a9490, 306759, 436, 6, 1486},
		{"interfering", sim.MaxThroughput, 2, 0x403e022f837b4a24, 317461, 446, 3, 1486},
	} {
		res, err := Run(nets[g.net], Options{Seed: g.seed, GOPs: 4, Scheme: g.scheme})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.MeanPSNR); got != g.psnrBits {
			t.Errorf("%s %v seed %d: MeanPSNR bits %#016x (%v), want %#016x (%v)",
				g.net, g.scheme, g.seed, got, res.MeanPSNR, g.psnrBits, math.Float64frombits(g.psnrBits))
		}
		if res.DeliveredBytes != g.delivered || res.SentPackets != g.sent ||
			res.Retransmissions != g.retransmit || res.DroppedPackets != g.dropped {
			t.Errorf("%s %v seed %d: delivered/sent/retransmitted/dropped = %d/%d/%d/%d, want %d/%d/%d/%d",
				g.net, g.scheme, g.seed, res.DeliveredBytes, res.SentPackets, res.Retransmissions, res.DroppedPackets,
				g.delivered, g.sent, g.retransmit, g.dropped)
		}
	}
}
