package netmodel

import (
	"reflect"
	"runtime"
	"testing"

	"femtocr/internal/video"
)

func TestPartitionConnectedIsIdentity(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("%d shards for a connected network, want 1", len(shards))
	}
	sub, err := net.Subnetwork(&shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if sub != net {
		t.Fatal("single-component Subnetwork must return the parent network itself")
	}
	if !reflect.DeepEqual(shards[0].FBSs, []int{1, 2, 3}) {
		t.Fatalf("shard FBSs %v", shards[0].FBSs)
	}
	if len(shards[0].Users) != net.K() {
		t.Fatalf("shard users %d, want %d", len(shards[0].Users), net.K())
	}
}

// TestPartitionSkipsComponentsWithoutUsers: an isolated FBS that serves no
// user has nothing to simulate, so it gets no shard, and the shards around
// it keep their component indices.
func TestPartitionSkipsComponentsWithoutUsers(t *testing.T) {
	trio := video.PaperTrio()
	net, err := NewNetwork(DefaultConfig(), NonInterferingSpec([][]video.Sequence{trio[:], nil, trio[:2]}))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	want := []Shard{
		{Component: 0, FBSs: []int{1}, Users: []int{0, 1, 2}},
		{Component: 2, FBSs: []int{3}, Users: []int{3, 4}},
	}
	if !reflect.DeepEqual(shards, want) {
		t.Fatalf("shards %+v, want %+v", shards, want)
	}
}

func TestPartitionNonInterfering(t *testing.T) {
	trio := video.PaperTrio()
	net, err := NewNetwork(DefaultConfig(), NonInterferingSpec([][]video.Sequence{trio[:], trio[:1], trio[1:]}))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("%d shards, want 3 isolated FBSs", len(shards))
	}
	wantUsers := []int{3, 1, 2}
	for ci, s := range shards {
		if s.Component != ci {
			t.Fatalf("shard %d has Component=%d", ci, s.Component)
		}
		if !reflect.DeepEqual(s.FBSs, []int{ci + 1}) {
			t.Fatalf("shard %d FBSs %v", ci, s.FBSs)
		}
		if len(s.Users) != wantUsers[ci] {
			t.Fatalf("shard %d has %d users, want %d", ci, len(s.Users), wantUsers[ci])
		}
		sub, err := net.Subnetwork(&s)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("shard %d sub-network invalid: %v", ci, err)
		}
		if sub.NumFBS != 1 || sub.Graph.N() != 1 || sub.Graph.NumEdges() != 0 {
			t.Fatalf("shard %d sub-network shape: FBSs=%d edges=%d", ci, sub.NumFBS, sub.Graph.NumEdges())
		}
		for localID, j := range s.Users {
			got := sub.Users[localID]
			orig := net.Users[j]
			if got.ID != localID || got.FBS != 1 {
				t.Fatalf("shard %d user %d remap: ID=%d FBS=%d", ci, localID, got.ID, got.FBS)
			}
			if got.Pos != orig.Pos || got.Seq.Name != orig.Seq.Name {
				t.Fatalf("shard %d user %d lost identity", ci, localID)
			}
		}
		if sub.Band != net.Band {
			t.Fatalf("shard %d does not share the parent band", ci)
		}
	}
}

func TestPartitionMetroCoversEveryUserOnce(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(), MetroPoissonSpec(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 2 {
		t.Fatalf("metro poisson collapsed to %d component(s); layout density is off", len(shards))
	}
	seenUser := make([]bool, net.K())
	seenFBS := make([]bool, net.NumFBS+1)
	for _, s := range shards {
		for _, j := range s.Users {
			if seenUser[j] {
				t.Fatalf("user %d in two shards", j)
			}
			seenUser[j] = true
		}
		for _, f := range s.FBSs {
			if seenFBS[f] {
				t.Fatalf("FBS %d in two shards", f)
			}
			seenFBS[f] = true
		}
	}
	for j, ok := range seenUser {
		if !ok {
			t.Fatalf("user %d in no shard", j)
		}
	}
}

func TestPartitionPreservesInducedEdges(t *testing.T) {
	// A 1x2 metro grid with 3-FBS blocks: components {1,2,3} and {4,5,6},
	// each an induced path.
	net, err := NewNetwork(DefaultConfig(), MetroGridSpec(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("%d shards, want 2 blocks", len(shards))
	}
	for ci := range shards {
		sub, err := net.Subnetwork(&shards[ci])
		if err != nil {
			t.Fatal(err)
		}
		if sub.Graph.N() != 3 || sub.Graph.NumEdges() != 2 ||
			!sub.Graph.HasEdge(0, 1) || !sub.Graph.HasEdge(1, 2) || sub.Graph.HasEdge(0, 2) {
			t.Fatalf("shard %d induced graph is not the 3-path: %v", ci, sub.Graph.Edges())
		}
	}
}

// TestSubnetworkCostIndependentOfCity: materializing a shard allocates
// what the shard holds, not scratch sized to its parent. The same
// one-FBS, two-user shard costs the same bytes in a 40-FBS and a 400-FBS
// deployment.
func TestSubnetworkCostIndependentOfCity(t *testing.T) {
	bytesOf := func(numFBS int) uint64 {
		net, err := NewNetwork(DefaultConfig(), TopologySpec{Kind: KindNonInterferingLine, FBSs: numFBS, UsersPerFBS: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards, err := net.Partition()
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != numFBS || len(shards[0].FBSs) != 1 || len(shards[0].Users) != 2 {
			t.Fatalf("%d FBSs: %d shards, first %+v", numFBS, len(shards), shards[0])
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := net.Subnetwork(&shards[0]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesOf(40), bytesOf(400)
	if small != large {
		t.Fatalf("one-FBS shard: %d B per Subnetwork under 40 FBSs, %d B under 400", small, large)
	}
}
