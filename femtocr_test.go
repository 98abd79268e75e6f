package femtocr

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/experiments"
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
	net3, err := NewNetwork(DefaultConfig(), InterferingPathSpec([][]Sequence{{bus}, {foreman}, {bus}}))
	if err != nil {
		t.Fatal(err)
	}
	if net3.NumFBS != 3 || net3.Graph.NumEdges() != 2 || net3.Graph.MaxDegree() != 2 {
		t.Fatalf("interfering path: %d FBSs, %d edges, Dmax %d; want 3, 2, 2",
			net3.NumFBS, net3.Graph.NumEdges(), net3.Graph.MaxDegree())
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

// TestFacadeFigures regenerates every figure through Figures at a smoke
// scale and checks, per figure in registry order, its output name, its
// curve count, its point count per curve and that no point is NaN.
func TestFacadeFigures(t *testing.T) {
	p := QuickScale()
	p.GOPs = 2
	figs, err := Figures(p, "everything")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name           string
		curves, points int
	}{
		{"fig3", 3, 3}, {"fig4a", 2, 25}, {"fig4b", 3, 5}, {"fig4c", 3, 5},
		{"fig5", 3, 9}, {"fig6a", 4, 5}, {"fig6b", 4, 5}, {"fig6c", 4, 5},
		{"ablation-belief", 2, 4}, {"ablation-sensor", 1, 3}, {"gamma", 2, 5},
		{"engines", 2, 3}, {"deadline", 1, 4}, {"capacity", 2, 6}, {"frontier", 2, 5},
		{"scalability", 4, 4}, {"topology", 7, 5},
	}
	if len(figs) != len(want) {
		t.Fatalf("%d figures, want %d", len(figs), len(want))
	}
	for i, w := range want {
		t.Run(w.name, func(t *testing.T) {
			nf := figs[i]
			if nf.ID != w.name {
				t.Fatalf("figure %d is %q", i, nf.ID)
			}
			if nf.Figure.CSV() == "" || nf.Figure.Render() == "" {
				t.Fatal("empty rendering")
			}
			if len(nf.Figure.Curves) != w.curves {
				t.Fatalf("%d curves, want %d", len(nf.Figure.Curves), w.curves)
			}
			for _, c := range nf.Figure.Curves {
				if c.Len() != w.points {
					t.Fatalf("curve %q has %d points, want %d", c.Name, c.Len(), w.points)
				}
				for j := 0; j < c.Len(); j++ {
					if _, pt := c.At(j); math.IsNaN(pt.Mean) {
						t.Fatalf("curve %q point %d is NaN", c.Name, j)
					}
				}
			}
		})
	}
	if _, err := Figures(p); !errors.Is(err, experiments.ErrBadParams) {
		t.Fatalf("Figures with no id: err = %v, want ErrBadParams", err)
	}
}
