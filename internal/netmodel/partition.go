package netmodel

import "fmt"

// Shard is one independent coordination domain of a deployment: a connected
// component of the interference graph together with the users its FBSs
// serve (at least one). Components never share licensed-channel
// interference, and the sharded engine gives each its own MBS capacity
// slice and sensing-fusion domain, so shards simulate independently (see
// sim.RunSharded).
type Shard struct {
	// Component is the index of this shard in Graph.Components() order
	// (ascending by smallest FBS member).
	Component int
	// FBSs lists the original 1-based FBS ids of the component, ascending.
	FBSs []int
	// Users lists the original indices into Network.Users served by those
	// FBSs, ascending.
	Users []int

	// net is the prebuilt sub-network for the trivial single-component
	// partition, where the shard IS the parent network.
	net *Network
}

// Partition decomposes the network into shards, one per connected component
// of the interference graph that serves users, ordered as
// Graph.Components() orders them. A component whose FBSs serve no user has
// nothing to simulate and gets no shard; the others keep their component
// index. The sub-networks themselves are materialized lazily by
// Subnetwork, so a metro-scale partition costs O(N + K) ints up front, not
// a copy of every user. A connected network yields a single shard whose
// Subnetwork is the network itself.
func (n *Network) Partition() ([]Shard, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	comps := n.Graph.Components()
	shards := make([]Shard, len(comps))
	if len(comps) == 1 {
		shards[0] = Shard{Component: 0, FBSs: fbsIDs(comps[0]), Users: userIndices(n.K()), net: n}
		return shards, nil
	}
	// compOf maps each 0-based FBS vertex to its component index.
	compOf := make([]int, n.NumFBS)
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	for ci, comp := range comps {
		shards[ci] = Shard{Component: ci, FBSs: fbsIDs(comp)}
	}
	// One pass over the users keeps partitioning O(K) instead of the
	// O(components*K) of repeated UsersOf scans; ascending user order is
	// preserved within every shard.
	for j := range n.Users {
		ci := compOf[n.Users[j].FBS-1]
		shards[ci].Users = append(shards[ci].Users, j)
	}
	served := shards[:0]
	for _, s := range shards {
		if len(s.Users) > 0 {
			served = append(served, s)
		}
	}
	return served, nil
}

// fbsIDs converts 0-based sorted component vertices to 1-based FBS ids.
func fbsIDs(comp []int) []int {
	out := make([]int, len(comp))
	for i, v := range comp {
		out[i] = v + 1
	}
	return out
}

// userIndices returns 0..k-1.
func userIndices(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// Subnetwork materializes the shard as a standalone Network: FBS ids are
// renumbered 1..len(FBSs) in ascending original order, users are renumbered
// 0..k-1 in ascending original order, and the interference graph is the
// induced component subgraph. Band and Detector are shared with the parent
// (both are read-only during simulation, safe for concurrent engines). For
// the single-component partition the parent network itself is returned.
func (n *Network) Subnetwork(s *Shard) (*Network, error) {
	if s.net != nil {
		return s.net, nil
	}
	// newFBS maps original 0-based vertices to the shard's 1-based ids.
	newFBS := make([]int, n.NumFBS)
	vertices := make([]int, len(s.FBSs))
	for i, f := range s.FBSs {
		if f < 1 || f > n.NumFBS {
			return nil, fmt.Errorf("%w: shard FBS %d of %d", ErrBadNetwork, f, n.NumFBS)
		}
		newFBS[f-1] = i + 1
		vertices[i] = f - 1
	}
	sub, err := n.Graph.Subgraph(vertices)
	if err != nil {
		return nil, err
	}
	users := make([]User, len(s.Users))
	for localID, j := range s.Users {
		if j < 0 || j >= len(n.Users) {
			return nil, fmt.Errorf("%w: shard user %d of %d", ErrBadNetwork, j, len(n.Users))
		}
		u := n.Users[j]
		u.ID = localID
		u.FBS = newFBS[u.FBS-1]
		if u.FBS == 0 {
			return nil, fmt.Errorf("%w: user %d served by FBS outside the shard", ErrBadNetwork, j)
		}
		users[localID] = u
	}
	return &Network{
		Band:     n.Band,
		NumFBS:   len(s.FBSs),
		Graph:    sub,
		Users:    users,
		Gamma:    n.Gamma,
		Detector: n.Detector,
		T:        n.T,
		GOPSize:  n.GOPSize,
	}, nil
}
