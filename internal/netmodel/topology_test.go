package netmodel

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"femtocr/internal/geometry"
	"femtocr/internal/video"
)

// TestNewNetworkReproducesLegacyConstructors pins the redesign contract:
// the spec-driven entry point builds byte-identical networks to the
// constructors it replaced, which placed their coverage disks directly —
// one disk at the origin for the single cell, a line spaced 4R apart for
// disjoint coverage, and 1.5R apart for the Fig. 5 path.
func TestNewNetworkReproducesLegacyConstructors(t *testing.T) {
	cfg := DefaultConfig()
	trio := video.PaperTrio()
	r := femtoRadius
	groups := [][]video.Sequence{trio[:], trio[:]}
	paperGroups := [][]video.Sequence{trio[:], trio[:], trio[:]}
	origin, err := geometry.NewDisk(geometry.Point{}, r)
	if err != nil {
		t.Fatal(err)
	}
	line := func(n int, spacing float64) []geometry.Disk {
		disks, err := geometry.LineDeployment(geometry.Point{}, n, spacing, r)
		if err != nil {
			t.Fatal(err)
		}
		return disks
	}
	cases := []struct {
		name   string
		spec   TopologySpec
		disks  []geometry.Disk
		videos [][]video.Sequence
	}{
		{"PaperSingleSpec", PaperSingleSpec(), []geometry.Disk{origin}, [][]video.Sequence{trio[:]}},
		{"PaperInterferingSpec", PaperInterferingSpec(), line(3, 1.5*r), paperGroups},
		{"NonInterferingSpec", NonInterferingSpec(groups), line(2, 4*r), groups},
	}
	for _, c := range cases {
		legacy, err := build(cfg, c.disks, c.videos)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := NewNetwork(cfg, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, spec) {
			t.Fatalf("%s network differs from the legacy direct placement", c.name)
		}
	}
}

func TestMetroGridDecomposesIntoBlocks(t *testing.T) {
	cfg := DefaultConfig()
	spec := MetroGridSpec(2, 3, 2) // 6 blocks of 3 FBSs, 2 users each
	net, err := NewNetwork(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumFBS != 18 {
		t.Fatalf("NumFBS=%d, want 18", net.NumFBS)
	}
	if net.K() != 36 {
		t.Fatalf("K=%d, want 36", net.K())
	}
	comps := net.Graph.Components()
	if len(comps) != 6 {
		t.Fatalf("%d components, want 6 blocks", len(comps))
	}
	for ci, comp := range comps {
		if len(comp) != 3 {
			t.Fatalf("block %d has %d FBSs, want 3", ci, len(comp))
		}
	}
	// Each block is the paper's path: 2 edges per 3-FBS block, no more.
	if got, want := net.Graph.NumEdges(), 6*2; got != want {
		t.Fatalf("%d edges, want %d (a path per block)", got, want)
	}
}

func TestMetroPoissonDeterministicAndSized(t *testing.T) {
	cfg := DefaultConfig()
	spec := MetroPoissonSpec(40, 2)
	a, err := NewNetwork(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("metro poisson network is not reproducible from the seed")
	}
	if a.NumFBS != 40 || a.K() != 80 {
		t.Fatalf("NumFBS=%d K=%d, want 40/80", a.NumFBS, a.K())
	}

	// A different seed moves the layout.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c, err := NewNetwork(cfg2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Users[0].Pos, c.Users[0].Pos) {
		t.Fatal("seed change did not move the Poisson layout")
	}
}

// TestGeneratedLoadRotatesPool: generated load walks the six standard
// presets in order, wrapping around, and each FBS starts where the previous
// one stopped.
func TestGeneratedLoadRotatesPool(t *testing.T) {
	cfg := DefaultConfig()
	pool := video.StandardSequences()
	spec := TopologySpec{Kind: KindMetroGrid, Rows: 1, Cols: 2, FBSPerBlock: 1, UsersPerFBS: 4}
	net, err := NewNetwork(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantNames []string
	for _, i := range []int{0, 1, 2, 3, 4, 5, 0, 1} {
		wantNames = append(wantNames, pool[i].Name)
	}
	if len(net.Users) != len(wantNames) {
		t.Fatalf("%d users, want %d", len(net.Users), len(wantNames))
	}
	for j, u := range net.Users {
		if u.Seq.Name != wantNames[j] {
			t.Fatalf("user %d streams %s, want %s", j, u.Seq.Name, wantNames[j])
		}
	}
}

func TestTopologySpecErrors(t *testing.T) {
	cfg := DefaultConfig()
	cases := []TopologySpec{
		{},                          // no kind
		{Kind: KindMetroGrid},       // no grid dims
		{Kind: KindMetroPoisson},    // no FBS count
		{Kind: KindInterferingPath}, // neither Videos nor FBSs
		{Kind: KindMetroPoisson, FBSs: 2, Videos: make([][]video.Sequence, 3)}, // mismatched load
		{Kind: KindMetroPoisson, FBSs: 4, Side: -5},                            // negative side
		{Kind: KindMetroPoisson, FBSs: 4, Side: math.NaN()},                    // NaN side
		{Kind: KindMetroPoisson, FBSs: 4, Side: math.Inf(1)},                   // infinite side
		{Kind: KindMetroPoisson, FBSs: 4, UsersPerFBS: -1},                     // negative load
		{Kind: KindMetroGrid, Rows: 2, Cols: 2, FBSPerBlock: -2},               // negative block
	}
	for i, spec := range cases {
		if _, err := NewNetwork(cfg, spec); !errors.Is(err, ErrBadNetwork) {
			t.Errorf("case %d: err=%v, want ErrBadNetwork", i, err)
		}
	}
}

func TestTopologyKindString(t *testing.T) {
	kinds := []TopologyKind{KindSingle, KindNonInterferingLine, KindInterferingPath,
		KindMetroGrid, KindMetroPoisson, TopologyKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}
