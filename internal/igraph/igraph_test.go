package igraph

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"femtocr/internal/geometry"
	"femtocr/internal/rng"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph: N=%d edges=%d", g.N(), g.NumEdges())
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil { // duplicate, reversed
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge counted: %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge must be undirected")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("phantom edge")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("out of range err = %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("negative err = %v", err)
	}
	if err := g.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop err = %v", err)
	}
}

func TestNegativeSizeGraph(t *testing.T) {
	g := New(-5)
	if g.N() != 0 {
		t.Fatalf("N = %d, want 0", g.N())
	}
}

// TestPaperFigure2 reproduces the interference graph of Fig. 2: four FBSs
// where 1 and 2 are isolated and 3-4 share an edge.
func TestPaperFigure2(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(2, 3); err != nil { // FBS 3 -- FBS 4
		t.Fatal(err)
	}
	if g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatal("FBS 1 and 2 must be isolated")
	}
	if g.MaxDegree() != 1 {
		t.Fatalf("Dmax = %d, want 1 (paper: bound is half of optimum)", g.MaxDegree())
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3", comps)
	}
}

// TestPaperFigure5 reproduces Fig. 5: a path FBS1-FBS2-FBS3.
func TestPaperFigure5(t *testing.T) {
	g := Path(3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("path structure wrong")
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("Dmax = %d, want 2", g.MaxDegree())
	}
	// FBS 1 and FBS 3 may share a channel: they form an independent set.
	if !g.IsIndependent([]int{0, 2}) {
		t.Fatal("{FBS1, FBS3} must be independent")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Fatal("{FBS1, FBS2} must not be independent")
	}
}

func TestFromCoverageMatchesOverlaps(t *testing.T) {
	// Line deployment with adjacent overlap only: expect the path graph.
	disks, err := geometry.LineDeployment(geometry.Point{}, 3, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := FromCoverage(disks)
	want := Path(3)
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("edges = %v, want path", g.Edges())
	}
	for _, e := range want.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(5)
	if g.NumEdges() != 10 {
		t.Fatalf("K5 edges = %d, want 10", g.NumEdges())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("K5 Dmax = %d, want 4", g.MaxDegree())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	for _, v := range []int{4, 1, 3} {
		if err := g.AddEdge(2, v); err != nil {
			t.Fatal(err)
		}
	}
	nb := g.Neighbors(2)
	if len(nb) != 3 || nb[0] != 1 || nb[1] != 3 || nb[2] != 4 {
		t.Fatalf("Neighbors = %v, want [1 3 4]", nb)
	}
	if g.Neighbors(-1) != nil || g.Neighbors(9) != nil {
		t.Fatal("invalid vertex neighbors must be nil")
	}
	if g.Degree(-1) != 0 {
		t.Fatal("invalid vertex degree must be 0")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 3)
	e := g.Edges()
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}}
	if len(e) != len(want) {
		t.Fatalf("Edges = %v", e)
	}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", e, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("second component = %v", comps[1])
	}
}

// TestGreedyColoringProperty: the coloring is proper and uses at most
// Dmax + 1 colors, on random graphs.
func TestGreedyColoringProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%15) + 1
		s := rng.New(seed)
		g := New(n)
		edges := int(mRaw) % (n * 2)
		for i := 0; i < edges; i++ {
			u, v := s.IntN(n), s.IntN(n)
			if u != v {
				if err := g.AddEdge(u, v); err != nil {
					return false
				}
			}
		}
		colors, used := g.GreedyColoring()
		if used > g.MaxDegree()+1 {
			return false
		}
		for _, e := range g.Edges() {
			if colors[e[0]] == colors[e[1]] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGreedyColoringEdgeless(t *testing.T) {
	g := New(4)
	colors, used := g.GreedyColoring()
	if used != 1 {
		t.Fatalf("edgeless graph used %d colors", used)
	}
	for _, c := range colors {
		if c != 0 {
			t.Fatalf("colors = %v", colors)
		}
	}
}

func TestStringAndDOT(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	s := g.String()
	for _, want := range []string{"FBS 1 -- FBS 2", "FBS 3 (isolated)", "3 FBS, 1 edges"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	d := g.DOT("fig2")
	for _, want := range []string{"graph fig2 {", "fbs1 -- fbs2;", "fbs3;"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q:\n%s", want, d)
		}
	}
}

func TestIsIndependentEmptyAndSingleton(t *testing.T) {
	g := Complete(4)
	if !g.IsIndependent(nil) {
		t.Fatal("empty set must be independent")
	}
	if !g.IsIndependent([]int{2}) {
		t.Fatal("singleton must be independent")
	}
}

func TestConnectivity(t *testing.T) {
	if !Path(5).IsConnected() {
		t.Fatal("path not connected")
	}
	if New(3).IsConnected() {
		t.Fatal("edgeless graph connected")
	}
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Fatal("trivial graphs must count as connected")
	}
}

// TestGraphKeepsOneAdjacency: the sorted neighbor lists are the graph's
// only adjacency representation, so building a graph allocates the struct
// and its list headers, and coloring a sparse graph allocates only the
// colors, whatever the vertex count.
func TestGraphKeepsOneAdjacency(t *testing.T) {
	var g *Graph
	if n := testing.AllocsPerRun(10, func() { g = New(500) }); n != 2 {
		t.Errorf("New(500): %v allocations, want 2", n)
	}
	g = Path(500)
	if n := testing.AllocsPerRun(10, func() { g.GreedyColoring() }); n != 1 {
		t.Errorf("GreedyColoring on a 500-vertex path: %v allocations, want 1", n)
	}
	for u := 0; u < 500; u++ {
		for v := 0; v < 500; v++ {
			if want := v == u-1 || v == u+1; g.HasEdge(u, v) != want {
				t.Fatalf("HasEdge(%d, %d) = %v", u, v, !want)
			}
		}
	}
	// A dense graph takes the marks off the stack: K_40 needs 40 colors.
	colors, used := Complete(40).GreedyColoring()
	for u, c := range colors {
		if c != u || used != 40 {
			t.Fatalf("K_40 coloring %v with %d colors, want vertex i colored i", colors, used)
		}
	}
}
