package igraph

import (
	"errors"
	"reflect"
	"testing"
)

func TestSubgraphInducesComponent(t *testing.T) {
	// Two components: path 0-1-2 and edge 4-5, with 3 isolated.
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	comps := g.Components()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components %v, want %v", comps, want)
	}

	sub, err := g.Subgraph(comps[0])
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("component 0 subgraph: n=%d edges=%d", sub.N(), sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatalf("component 0 subgraph is not the path: edges %v", sub.Edges())
	}
	if got := sub.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1)=%v on the induced path", got)
	}

	iso, err := g.Subgraph(comps[1])
	if err != nil {
		t.Fatal(err)
	}
	if iso.N() != 1 || iso.NumEdges() != 0 {
		t.Fatalf("isolated subgraph: n=%d edges=%d", iso.N(), iso.NumEdges())
	}
}

func TestSubgraphDropsCrossEdges(t *testing.T) {
	g := Complete(4)
	sub, err := g.Subgraph([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 2 || sub.NumEdges() != 1 || !sub.HasEdge(0, 1) {
		t.Fatalf("induced K2: n=%d edges=%v", sub.N(), sub.Edges())
	}
}

func TestSubgraphRejectsBadVertexLists(t *testing.T) {
	g := Path(4)
	for _, vs := range [][]int{{-1, 0}, {0, 4}, {2, 1}, {1, 1}} {
		if _, err := g.Subgraph(vs); !errors.Is(err, ErrBadVertex) {
			t.Errorf("Subgraph(%v): err=%v, want ErrBadVertex", vs, err)
		}
	}
	// The empty induced subgraph is fine.
	sub, err := g.Subgraph(nil)
	if err != nil || sub.N() != 0 {
		t.Fatalf("empty subgraph: %v, n=%d", err, sub.N())
	}
}
