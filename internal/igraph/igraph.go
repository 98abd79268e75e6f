// Package igraph implements the interference graph of the paper's
// Definition 1: an undirected graph whose vertices are FBSs and whose edges
// connect FBSs with overlapping coverage. Adjacent FBSs cannot use the same
// licensed channel simultaneously (Lemma 4); the maximum vertex degree Dmax
// drives the greedy algorithm's performance bound (Theorem 2).
package igraph

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"femtocr/internal/geometry"
)

// ErrBadVertex is returned for out-of-range vertex indices.
var ErrBadVertex = errors.New("igraph: vertex out of range")

// ErrSelfLoop is returned when adding an edge from a vertex to itself.
var ErrSelfLoop = errors.New("igraph: self loops not allowed")

// Graph is an undirected interference graph over vertices 0..N-1 (vertex i
// is FBS i+1 in the paper's numbering).
type Graph struct {
	n   int
	adj []map[int]bool
	// nbr mirrors adj as sorted neighbor lists, maintained incrementally at
	// edge insertion so Neighbors is an allocation-free lookup on the greedy
	// allocator's per-slot path instead of a per-call build-and-sort.
	nbr [][]int
}

// New creates an edgeless graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	return &Graph{n: n, adj: adj, nbr: make([][]int, n)}
}

// FromCoverage derives the interference graph of a deployment: vertices are
// the disks (FBS coverage areas) and edges connect overlapping disks.
func FromCoverage(disks []geometry.Disk) *Graph {
	g := New(len(disks))
	for i := 0; i < len(disks); i++ {
		for j := i + 1; j < len(disks); j++ {
			if disks[i].Overlaps(disks[j]) {
				g.link(i, j)
			}
		}
	}
	return g
}

// Path returns the path graph 0-1-2-...-n-1, the topology of the paper's
// simulated interfering scenario (Fig. 5: FBS1-FBS2-FBS3).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		// Adjacent vertices always differ, so AddEdge cannot fail here.
		_ = g.AddEdge(i, i+1)
	}
	return g
}

// Complete returns the complete graph on n vertices (all FBSs mutually
// interfering).
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = g.AddEdge(i, j)
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v).
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: (%d, %d) with n=%d", ErrBadVertex, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLoop, u)
	}
	g.link(u, v)
	return nil
}

// link records the validated undirected edge (u, v) in both the adjacency
// maps and the sorted neighbor lists. Duplicate edges are ignored.
func (g *Graph) link(u, v int) {
	if g.adj[u][v] {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
	g.nbr[u] = insertSorted(g.nbr[u], v)
	g.nbr[v] = insertSorted(g.nbr[v], u)
}

// insertSorted inserts v into the ascending slice s, keeping it sorted.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether u and v interfere. Out-of-range vertices never
// interfere.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	return g.adj[u][v]
}

// Neighbors returns R(u): the sorted vertices adjacent to u. The returned
// slice is the graph's own cached list — callers must treat it as read-only.
func (g *Graph) Neighbors(u int) []int {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.nbr[u]
}

// Degree returns the number of neighbors of u, or 0 for invalid vertices.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// MaxDegree returns Dmax, the largest vertex degree; 0 for an empty or
// edgeless graph. Theorem 2 guarantees the greedy allocation achieves at
// least 1/(1+Dmax) of the optimum.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for u := 0; u < g.n; u++ {
		total += len(g.adj[u])
	}
	return total / 2
}

// Edges returns all undirected edges as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Components returns the connected components, each a sorted vertex list,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Subgraph returns the induced subgraph on the given vertices, which must
// be valid, strictly ascending, and duplicate-free. Vertex i of the result
// stands for vertices[i]; an edge is present exactly when both endpoints
// are in the set and adjacent in g. Partitioning a deployment by
// Components and inducing each component yields standalone interference
// graphs for the sharded simulation engine.
func (g *Graph) Subgraph(vertices []int) (*Graph, error) {
	pos := make([]int, g.n)
	for i := range pos {
		pos[i] = -1
	}
	prev := -1
	for i, u := range vertices {
		if u < 0 || u >= g.n {
			return nil, fmt.Errorf("%w: %d with n=%d", ErrBadVertex, u, g.n)
		}
		if u <= prev {
			return nil, fmt.Errorf("%w: vertices must be strictly ascending, got %d after %d", ErrBadVertex, u, prev)
		}
		prev = u
		pos[u] = i
	}
	sub := New(len(vertices))
	for i, u := range vertices {
		for _, v := range g.Neighbors(u) {
			j := pos[v]
			if j > i { // each edge linked once, from its lower endpoint
				sub.link(i, j)
			}
		}
	}
	return sub, nil
}

// IsIndependent reports whether no two vertices in set are adjacent, i.e.
// the set of FBSs may share a channel.
func (g *Graph) IsIndependent(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// IsConnected reports whether the graph has a single connected component
// (an empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	return g.n == 0 || len(g.Components()) == 1
}

// GreedyColoring colors vertices with the smallest available color in index
// order and returns the per-vertex colors (0-based) and the number of colors
// used. The count never exceeds Dmax+1, a classical bound mirroring the
// paper's Theorem 2 structure.
func (g *Graph) GreedyColoring() ([]int, int) {
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	maxColor := 0
	for u := 0; u < g.n; u++ {
		used := make(map[int]bool)
		for v := range g.adj[u] {
			if colors[v] >= 0 {
				used[colors[v]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[u] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	return colors, maxColor
}

// String renders the graph as one "u -- v" line per edge (FBS numbering,
// 1-based, matching the paper's figures).
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interference graph: %d FBS, %d edges\n", g.n, g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  FBS %d -- FBS %d\n", e[0]+1, e[1]+1)
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) == 0 {
			fmt.Fprintf(&b, "  FBS %d (isolated)\n", u+1)
		}
	}
	return b.String()
}

// DOT renders the graph in Graphviz DOT format.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for u := 0; u < g.n; u++ {
		fmt.Fprintf(&b, "  fbs%d;\n", u+1)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  fbs%d -- fbs%d;\n", e[0]+1, e[1]+1)
	}
	b.WriteString("}\n")
	return b.String()
}
