package femtocr

import (
	"math"
	"reflect"
	"testing"
)

func TestFacadePacketSimulation(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulatePackets(net, PacketOptions{Seed: 1, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR < 25 || res.MeanPSNR > 45 {
		t.Fatalf("packet-level PSNR %v implausible", res.MeanPSNR)
	}
	if res.DeliveredBytes == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestEnginesAgree: the rate-based and packet-level engines are two views
// of the same system and must agree within a couple of dB.
func TestEnginesAgree(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	var rate, pkt float64
	const runs = 4
	for seed := uint64(1); seed <= runs; seed++ {
		a, err := Simulate(net, SimOptions{Seed: seed, GOPs: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SimulatePackets(net, PacketOptions{Seed: seed, GOPs: 8})
		if err != nil {
			t.Fatal(err)
		}
		rate += a.MeanPSNR
		pkt += b.MeanPSNR
	}
	if gap := math.Abs(rate-pkt) / runs; gap > 2.5 {
		t.Fatalf("engines diverge: rate-based %v vs packet %v", rate/runs, pkt/runs)
	}
}

// TestSimulateDeterminism is the determinism regression: two runs with the
// same seed must produce structurally identical results, bit for bit.
func TestSimulateDeterminism(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Seed: 42, GOPs: 4, TrackBound: false}
	a, err := Simulate(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\nfirst:  %+v\nsecond: %+v", a, b)
	}

	pa, err := SimulatePackets(net, PacketOptions{Seed: 42, GOPs: 3})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := SimulatePackets(net, PacketOptions{Seed: 42, GOPs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("packet engine: same seed, different results:\nfirst:  %+v\nsecond: %+v", pa, pb)
	}
}
