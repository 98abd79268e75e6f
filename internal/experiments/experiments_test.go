package experiments

import (
	"errors"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

func TestParamsValidation(t *testing.T) {
	if _, err := Fig3(Params{Runs: 0, GOPs: 3}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("runs=0 err = %v", err)
	}
	if _, err := Fig4b(Params{Runs: 2, GOPs: 0}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("gops=0 err = %v", err)
	}
	if _, err := Fig4a(Params{Runs: 0, GOPs: 3}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Fig4a runs=0 err = %v", err)
	}
	// Only the zero Config stands for the paper's defaults: a partial one
	// reaches NewNetwork as given, which rejects its zero P01 + P10.
	partial := Params{Runs: 1, GOPs: 1, Config: netmodel.Config{B0: 5, Gamma: 0.05}}
	if _, err := Fig3(partial); err == nil {
		t.Fatal("partial Config {B0: 5, Gamma: 0.05} ran as the paper's defaults")
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := Fig3(QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("%d curves, want 3 schemes", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if c.Len() != 3 {
			t.Fatalf("curve %q has %d points, want 3 users", c.Name, c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			x, pt := c.At(i)
			if x != float64(i+1) {
				t.Fatalf("curve %q x[%d] = %v", c.Name, i, x)
			}
			if pt.Mean < 20 || pt.Mean > 50 {
				t.Fatalf("curve %q PSNR %v implausible", c.Name, pt.Mean)
			}
			if pt.N != 2 {
				t.Fatalf("curve %q N = %d, want 2 runs", c.Name, pt.N)
			}
		}
	}
	out := fig.Render()
	for _, want := range []string{"Proposed", "Heuristic 1", "Heuristic 2", "User index"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	fig, err := Fig4a(QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 2 {
		t.Fatalf("curves = %d, want lambda_0 and lambda_1", len(fig.Curves))
	}
	// Subsampled: every stride-th row of the trace (the starting prices,
	// then one row per iteration) plus the last one.
	c := fig.Curves[0]
	if want := (fig4aIterations+fig4aStride-1)/fig4aStride + 1; c.Len() != want {
		t.Fatalf("subsampled points = %d, want %d", c.Len(), want)
	}
	if last, _ := c.At(c.Len() - 1); last != fig4aIterations {
		t.Fatalf("last rendered iteration %v, want %d", last, fig4aIterations)
	}
}

func TestFig4bShape(t *testing.T) {
	fig, err := Fig4b(QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if c.Len() != 5 {
			t.Fatalf("curve %q points = %d, want M in {4,6,8,10,12}", c.Name, c.Len())
		}
	}
	if x, _ := fig.Curves[0].At(0); x != 4 {
		t.Fatalf("first M = %v", x)
	}
}

func TestFig6aIncludesBound(t *testing.T) {
	p := QuickParams()
	p.GOPs = 2
	fig, err := Fig6a(p)
	if err != nil {
		t.Fatal(err)
	}
	bound := fig.Curve("Upper bound")
	prop := fig.Curve("Proposed")
	if bound == nil || prop == nil {
		t.Fatal("missing curves")
	}
	if bound.Len() != prop.Len() {
		t.Fatalf("bound has %d points, proposed %d", bound.Len(), prop.Len())
	}
	for i := 0; i < bound.Len(); i++ {
		_, b := bound.At(i)
		_, v := prop.At(i)
		if b.Mean < v.Mean {
			t.Fatalf("point %d: bound %v below proposed %v", i, b.Mean, v.Mean)
		}
	}
}

func TestFig6bUsesErrorPairs(t *testing.T) {
	p := QuickParams()
	p.GOPs = 2
	fig, err := Fig6b(p)
	if err != nil {
		t.Fatal(err)
	}
	c := fig.Curve(sim.Proposed.String())
	if c.Len() != len(SensingErrorPairs) {
		t.Fatalf("points = %d, want %d", c.Len(), len(SensingErrorPairs))
	}
	for i, pair := range SensingErrorPairs {
		if x, _ := c.At(i); x != pair[0] {
			t.Fatalf("x[%d] = %v, want epsilon %v", i, x, pair[0])
		}
	}
}

func TestFig6cSweepsB0(t *testing.T) {
	p := QuickParams()
	p.GOPs = 2
	fig, err := Fig6c(p)
	if err != nil {
		t.Fatal(err)
	}
	c := fig.Curve(sim.Proposed.String())
	if c.Len() != 5 {
		t.Fatalf("points = %d", c.Len())
	}
	if x, _ := c.At(0); x != 0.1 {
		t.Fatalf("first B0 = %v", x)
	}
	if x, _ := c.At(4); x != 0.5 {
		t.Fatalf("last B0 = %v", x)
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.Runs != 10 || p.GOPs != 20 || p.BaseSeed != 1000 {
		t.Fatalf("paper scale = %d runs x %d GOPs from seed %d, want 10 x 20 from 1000", p.Runs, p.GOPs, p.BaseSeed)
	}
}

// TestFigureIDs holds the figure-id grammar and the registry to the
// checked-in results: ids are unique, the registry's output names are
// exactly the stems under results/, each id selects its one entry
// (ignoring case), a paper figure's full name is not an id, "all" is the 8
// paper figures and "everything" the whole registry of 17.
func TestFigureIDs(t *testing.T) {
	reg := Registry()
	selected := func(id string) []string {
		var names []string
		for _, e := range reg {
			if selects(id, e) {
				names = append(names, e.name())
			}
		}
		return names
	}
	stems := map[string]bool{}
	for _, e := range reg {
		if stems[e.name()] {
			t.Fatalf("duplicate registry entry %q", e.name())
		}
		stems[e.name()] = true
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, f := range files {
		onDisk[strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))] = true
	}
	if !maps.Equal(onDisk, stems) {
		t.Fatalf("results/ stems %v, registry names %v", onDisk, stems)
	}
	accepted := map[string]string{
		"3": "fig3", "4a": "fig4a", "4b": "fig4b", "4c": "fig4c", "5": "fig5",
		"6a": "fig6a", "6b": "fig6b", "6c": "fig6c", "6A": "fig6a",
		"ablation-belief": "ablation-belief", "ablation-sensor": "ablation-sensor",
		"gamma": "gamma", "engines": "engines", "deadline": "deadline",
		"capacity": "capacity", "frontier": "frontier", "Frontier": "frontier",
		"scalability": "scalability", "topology": "topology", "Topology": "topology",
	}
	for id, name := range accepted {
		if got := selected(id); len(got) != 1 || got[0] != name {
			t.Fatalf("id %q selects %v, want the single entry %q", id, got, name)
		}
	}
	for _, id := range []string{"fig3", "99", "figtopology", ""} {
		if got := selected(id); len(got) != 0 {
			t.Fatalf("id %q selects %v, want nothing", id, got)
		}
		if _, err := Run(QuickParams(), id); !errors.Is(err, ErrBadParams) {
			t.Fatalf("Run(%q) err = %v, want ErrBadParams", id, err)
		}
	}
	if _, err := Run(QuickParams()); !errors.Is(err, ErrBadParams) {
		t.Fatalf("Run with no id: err = %v, want ErrBadParams", err)
	}
	if all, upper := selected("all"), selected("ALL"); len(all) != 8 || !slices.Equal(all, upper) {
		t.Fatalf("all = %v, ALL = %v; want the 8 paper figures", all, upper)
	}
	if everything := selected("everything"); len(everything) != 17 || len(reg) != 17 {
		t.Fatalf("everything = %d entries of a %d-entry registry, want all 17", len(everything), len(reg))
	}
}
