package femtocr

import (
	"math"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(net, SimOptions{Seed: 1, GOPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSNR < 25 || res.MeanPSNR > 45 {
		t.Fatalf("mean PSNR %v implausible", res.MeanPSNR)
	}
}

func TestFacadeSchemes(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool)
	for _, sch := range []Scheme{Proposed, Heuristic1, Heuristic2} {
		res, err := Simulate(net, SimOptions{Seed: 1, GOPs: 5, Scheme: sch})
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		seen[res.MeanPSNR] = true
	}
	if len(seen) < 2 {
		t.Fatal("schemes produced identical results; dispatch looks broken")
	}
}

func TestFacadeSequences(t *testing.T) {
	seqs := Sequences()
	if len(seqs) < 3 {
		t.Fatalf("%d sequences", len(seqs))
	}
	bus, err := SequenceByName("Bus")
	if err != nil {
		t.Fatal(err)
	}
	if bus.Name != "Bus" {
		t.Fatal("lookup broken")
	}
	if _, err := SequenceByName("nope"); err == nil {
		t.Fatal("unknown sequence accepted")
	}
}

func TestFacadeCustomNetwork(t *testing.T) {
	bus, _ := SequenceByName("Bus")
	foreman, _ := SequenceByName("Foreman")
	net, err := NewNetwork(DefaultConfig(), SingleSpec([]Sequence{bus, foreman}))
	if err != nil {
		t.Fatal(err)
	}
	if net.K() != 2 {
		t.Fatalf("K = %d", net.K())
	}
	net2, err := NewNetwork(DefaultConfig(), NonInterferingSpec([][]Sequence{{bus}, {foreman}}))
	if err != nil {
		t.Fatal(err)
	}
	if net2.NumFBS != 2 || net2.Graph.NumEdges() != 0 {
		t.Fatal("non-interfering network malformed")
	}
}

func TestFacadeInterfering(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(net, SimOptions{Seed: 1, GOPs: 2, TrackBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundPSNR < res.MeanPSNR {
		t.Fatalf("bound %v below mean %v", res.BoundPSNR, res.MeanPSNR)
	}
}

func TestFacadeFigureRunner(t *testing.T) {
	fig, err := Figure3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("%d curves", len(fig.Curves))
	}
	if fig.CSV() == "" || fig.Render() == "" {
		t.Fatal("empty rendering")
	}
}

func TestFacadeFigure4a(t *testing.T) {
	fig, err := Figure4a(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 2 || fig.Curves[0].Len() < 20 {
		t.Fatalf("%d curves", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		for i := 0; i < c.Len(); i++ {
			if _, pt := c.At(i); math.IsNaN(pt.Mean) {
				t.Fatal("NaN in dual trace")
			}
		}
	}
}

func TestPaperScaleValues(t *testing.T) {
	p := PaperScale()
	if p.Runs != 10 || p.GOPs != 20 {
		t.Fatalf("paper scale %d x %d", p.Runs, p.GOPs)
	}
}
