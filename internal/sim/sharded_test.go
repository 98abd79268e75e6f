package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

// compareShardedToRun checks every quality field the two engines share for
// exact (bitwise) equality.
func compareShardedToRun(t *testing.T, label string, sh *ShardedResult, ref *Result) {
	t.Helper()
	type pair struct {
		name      string
		got, want float64
	}
	for _, p := range []pair{
		{"MeanPSNR", sh.MeanPSNR, ref.MeanPSNR},
		{"BoundPSNR", sh.BoundPSNR, ref.BoundPSNR},
		{"MinUserPSNR", sh.MinUserPSNR, ref.MinUserPSNR},
		{"FairnessIndex", sh.FairnessIndex, ref.FairnessIndex},
		{"CollisionRate", sh.CollisionRate, ref.CollisionRate},
		{"MeanExpectedChannels", sh.MeanExpectedChannels, ref.MeanExpectedChannels},
	} {
		if p.got != p.want {
			t.Errorf("%s: %s = %v, want %v (bitwise)", label, p.name, p.got, p.want)
		}
	}
	if sh.GOPs != ref.GOPs || sh.Slots != ref.Slots {
		t.Errorf("%s: horizon %d GOPs/%d slots, want %d/%d", label, sh.GOPs, sh.Slots, ref.GOPs, ref.Slots)
	}
}

// TestShardedMatchesUnshardedPaperScale is the golden byte-identical check
// of the redesign: on the paper's connected topologies the sharded engine
// must reproduce the unsharded engine exactly, for every Shards and Workers
// setting (run under -race by the tier-1 gate).
func TestShardedMatchesUnshardedPaperScale(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	builds := []struct {
		name       string
		build      func() (*netmodel.Network, error)
		trackBound bool
	}{
		{"single", func() (*netmodel.Network, error) { return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec()) }, false},
		{"interfering", func() (*netmodel.Network, error) { return netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec()) }, true},
	}
	for _, b := range builds {
		net, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		base := Options{Seed: 1000, GOPs: 20, Scheme: Proposed, TrackBound: b.trackBound}
		ref, err := Run(net, base)
		if err != nil {
			t.Fatal(err)
		}
		// The paper topologies are connected: N-components = 1, so the
		// required shard grid {1, 2, N-components} exercises both the exact
		// setting and the clamp.
		for _, shardsOpt := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				opts := base
				opts.Parallel = Parallelism{Workers: workers, Shards: shardsOpt}
				sh, err := RunSharded(net, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := b.name
				if sh.Shards != 1 || sh.Groups != 1 {
					t.Fatalf("%s: %d shards in %d groups for a connected network", label, sh.Shards, sh.Groups)
				}
				compareShardedToRun(t, label, sh, ref)
				if !reflect.DeepEqual(sh.PerShard[0].MeanPSNR, ref.MeanPSNR) {
					t.Errorf("%s: shard summary mean %v, want %v", label, sh.PerShard[0].MeanPSNR, ref.MeanPSNR)
				}
				if sh.PerShard[0].Seed != base.Seed {
					t.Errorf("%s: shard 0 seed %d, want the base seed %d", label, sh.PerShard[0].Seed, base.Seed)
				}
			}
		}
	}
}

// TestShardedInvariantAcrossShardsAndWorkers pins the determinism contract
// on a multi-component network: shards ∈ {1, 2, N-components} and any
// worker count must fold to bitwise-identical results, and each shard must
// equal an independent unsharded run of its sub-network under its derived
// seed.
func TestShardedInvariantAcrossShardsAndWorkers(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	trio := video.PaperTrio()
	net, err := netmodel.NewNetwork(cfg, netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 1000, GOPs: 20, Scheme: Proposed}

	var ref *ShardedResult
	for _, shardsOpt := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			opts := base
			opts.Parallel = Parallelism{Workers: workers, Shards: shardsOpt}
			got, err := RunSharded(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Shards != 3 {
				t.Fatalf("shards=%d, want 3 components", got.Shards)
			}
			if got.Groups != shardsOpt {
				t.Fatalf("groups=%d, want %d", got.Groups, shardsOpt)
			}
			got.Timing = nil // the only schedule-dependent field
			got.Groups = 0
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("shards=%d workers=%d: result differs from the first fold\n got: %+v\nwant: %+v",
					shardsOpt, workers, got, ref)
			}
		}
	}

	// Every shard summary must match a standalone unsharded run of the
	// shard's sub-network at the derived seed ("byte-identical to the
	// unsharded engine wherever both can run").
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for c := range shards {
		sub, err := net.Subnetwork(&shards[c])
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.Seed = ShardSeed(base.Seed, c)
		res, err := Run(sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := ref.PerShard[c]
		if s.MeanPSNR != res.MeanPSNR || s.MinUserPSNR != res.MinUserPSNR ||
			s.FairnessIndex != res.FairnessIndex || s.CollisionRate != res.CollisionRate ||
			s.MeanExpectedChannels != res.MeanExpectedChannels {
			t.Fatalf("shard %d summary diverges from its standalone run:\n summary: %+v\n run: %+v", c, s, res)
		}
		if s.Users != len(res.PerUserPSNR) || s.FBSs != sub.NumFBS {
			t.Fatalf("shard %d sizes: users=%d fbss=%d", c, s.Users, s.FBSs)
		}
	}
	if ref.PSNR.N != net.K() {
		t.Fatalf("streamed PSNR distribution over %d users, want %d", ref.PSNR.N, net.K())
	}
}

// equalCountBounds is the grouping rule shardBounds replaced, kept here as
// the regression reference: contiguous ranges balanced by component count,
// blind to how many users each component holds.
func equalCountBounds(n, groups int) []int {
	bounds := make([]int, groups+1)
	for g := 0; g <= groups; g++ {
		bounds[g] = g * n / groups
	}
	return bounds
}

// maxRangeWeight returns the heaviest contiguous range's total weight under
// a grouping — the critical path of that grouping for the given per-shard
// costs.
func maxRangeWeight(weights []int64, bounds []int) int64 {
	var worst int64
	for g := 0; g+1 < len(bounds); g++ {
		var w int64
		for c := bounds[g]; c < bounds[g+1]; c++ {
			w += weights[c]
		}
		if w > worst {
			worst = w
		}
	}
	return worst
}

// TestShardBoundsBalanceUserWeight pins the shard-imbalance fix: grouping
// must weight contiguous component ranges by their estimated cost — users
// plus shardFBSWeight per FBS — not by component count. Every synthetic
// component below is one FBS serving the given number of users. On a
// skewed population the heaviest task's cost must never exceed the
// equal-count grouping's, and on a dense downtown among light suburbs it
// must strictly improve. Structural invariants: bounds strictly increase
// (every task nonempty, possible since groups <= components) and cover
// every component exactly.
func TestShardBoundsBalanceUserWeight(t *testing.T) {
	mkShards := func(counts []int) []netmodel.Shard {
		shards := make([]netmodel.Shard, len(counts))
		for c, k := range counts {
			shards[c] = netmodel.Shard{Component: c, FBSs: []int{c + 1}, Users: make([]int, k)}
		}
		return shards
	}
	weightsOf := func(counts []int) []int64 {
		w := make([]int64, len(counts))
		for i, k := range counts {
			w[i] = int64(k + shardFBSWeight)
		}
		return w
	}
	populations := [][]int{
		{9, 1, 1, 1, 1},          // dense cell, light suburbs
		{20, 1, 1, 1, 1},         // denser downtown, light suburbs
		{1, 1, 1, 9, 1, 1, 1, 8}, // heavy components mid- and tail-range
		{3, 3, 3, 3, 3, 3},       // uniform: weighted must not do worse
		{1, 30, 1},               // one giant component dominates everything
		{5},                      // single component
	}
	for _, counts := range populations {
		shards := mkShards(counts)
		weights := weightsOf(counts)
		for groups := 1; groups <= len(counts); groups++ {
			bounds := shardBounds(shards, groups)
			if len(bounds) != groups+1 || bounds[0] != 0 || bounds[groups] != len(counts) {
				t.Fatalf("counts=%v groups=%d: bounds %v do not cover [0,%d)", counts, groups, bounds, len(counts))
			}
			for g := 0; g < groups; g++ {
				if bounds[g+1] <= bounds[g] {
					t.Fatalf("counts=%v groups=%d: empty task %d in bounds %v", counts, groups, g, bounds)
				}
			}
			got := maxRangeWeight(weights, bounds)
			ref := maxRangeWeight(weights, equalCountBounds(len(counts), groups))
			if got > ref {
				t.Errorf("counts=%v groups=%d: weighted max task load %d exceeds equal-count %d (bounds %v)",
					counts, groups, got, ref, bounds)
			}
		}
	}
	// A 9-user cell beside four 1-user cells must group like equal-count
	// ({9,1} | {1,1,1}: cost 18 vs 15). The pure user count isolated the
	// dense cell (9 vs 4 users), yet with per-FBS cost it is the lighter
	// side: 13 against the four cells' 20.
	skew := []int{9, 1, 1, 1, 1}
	if got, want := shardBounds(mkShards(skew), 2), equalCountBounds(len(skew), 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("9-user cell beside four 1-user cells: bounds %v, want equal-count %v", got, want)
	}
	// A denser downtown must still be isolated: equal-count packs the
	// 20-user cell with a suburb (cost 29 vs 15); weighted gives 24 vs 20.
	downtown := []int{20, 1, 1, 1, 1}
	got := maxRangeWeight(weightsOf(downtown), shardBounds(mkShards(downtown), 2))
	ref := maxRangeWeight(weightsOf(downtown), equalCountBounds(len(downtown), 2))
	if got >= ref {
		t.Fatalf("downtown skew: weighted max task load %d, want strictly below equal-count %d", got, ref)
	}
}

// TestShardedTimingImprovedBySkewAwareGrouping runs a genuinely skewed
// non-interfering network — one FBS streaming nine videos beside four
// single-video FBSs — and checks, from the measured per-shard times, that
// the grouping's critical path (the max per-task share ShardTiming reports)
// is no worse than the equal-count grouping would have produced on the very
// same measurements. The quality fold must stay bitwise-identical to the
// one-group run, re-proving grouping only affects scheduling.
func TestShardedTimingImprovedBySkewAwareGrouping(t *testing.T) {
	trio := video.PaperTrio()
	nine := make([]video.Sequence, 0, 9)
	for i := 0; i < 3; i++ {
		nine = append(nine, trio[:]...)
	}
	groupsOfVideos := [][]video.Sequence{nine, trio[:1], trio[1:2], trio[2:3], trio[:1]}
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.NonInterferingSpec(groupsOfVideos))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 4000, GOPs: 6, Scheme: Proposed, Parallel: Parallelism{Workers: 1, Shards: 2}}
	// One run's per-shard wall times are noisy under concurrent load (a
	// light shard can read ~1.7x its quiet time), so compare the groupings
	// on each shard's minimum over repeated runs, the min-of-N statistic.
	const runs = 5
	var got *ShardedResult
	var shardNS []int64
	for r := 0; r < runs; r++ {
		res, err := RunSharded(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != 5 || res.Groups != 2 {
			t.Fatalf("shards=%d groups=%d, want 5 components in 2 groups", res.Shards, res.Groups)
		}
		if res.Timing == nil || len(res.Timing.TaskNS) != 2 || len(res.Timing.ShardNS) != 5 {
			t.Fatalf("timing = %+v, want 2 task and 5 shard entries", res.Timing)
		}
		if shardNS == nil {
			got = res
			shardNS = append([]int64(nil), res.Timing.ShardNS...)
		}
		for c, ns := range res.Timing.ShardNS {
			if ns < shardNS[c] {
				shardNS[c] = ns
			}
		}
	}
	// Recompute both groupings' critical paths from the same measured
	// per-shard times: the dense cell costs less than the four light ones
	// combined but far more than any one of them, so the weighted grouping
	// must not lengthen the max task over the equal-count one.
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	weighted := maxRangeWeight(shardNS, shardBounds(shards, 2))
	equal := maxRangeWeight(shardNS, equalCountBounds(5, 2))
	if weighted > equal {
		t.Errorf("weighted grouping critical path %dns exceeds equal-count %dns (min shardNS over %d runs %v)",
			weighted, equal, runs, shardNS)
	}
	// Grouping must not touch the folded quality results.
	ref, err := RunSharded(net, Options{Seed: 4000, GOPs: 6, Scheme: Proposed, Parallel: Parallelism{Workers: 1, Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	got.Timing, ref.Timing = nil, nil
	got.Groups, ref.Groups = 0, 0
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("grouping changed the folded result:\n got: %+v\nwant: %+v", got, ref)
	}
}

func TestShardSeed(t *testing.T) {
	if ShardSeed(42, 0) != 42 {
		t.Fatal("shard 0 must keep the base seed (single-component bitwise reduction)")
	}
	seen := map[uint64]bool{}
	for c := 0; c < 64; c++ {
		s := ShardSeed(1000, c)
		if seen[s] {
			t.Fatalf("duplicate shard seed at component %d", c)
		}
		seen[s] = true
	}
}

// TestRunShardedSkipsComponentsWithoutUsers: a component whose FBSs serve
// no user gets no shard, and the shard after it still draws the seed of
// its own component index, so the skip shifts no other shard's randomness.
func TestRunShardedSkipsComponentsWithoutUsers(t *testing.T) {
	trio := video.PaperTrio()
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(),
		netmodel.NonInterferingSpec([][]video.Sequence{trio[:], nil, trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 5, GOPs: 2}
	sh, err := RunSharded(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards != 2 || sh.Users != net.K() {
		t.Fatalf("shards=%d users=%d, want 2 shards over %d users", sh.Shards, sh.Users, net.K())
	}
	shards, err := net.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sh.PerShard {
		c := shards[i].Component
		if s.Component != c || s.Seed != ShardSeed(opts.Seed, c) {
			t.Fatalf("shard %d: component %d seed %d, want component %d seed %d", i, s.Component, s.Seed, c, ShardSeed(opts.Seed, c))
		}
		sub, err := net.Subnetwork(&shards[i])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(sub, Options{Seed: s.Seed, GOPs: opts.GOPs})
		if err != nil {
			t.Fatal(err)
		}
		if s.MeanPSNR != ref.MeanPSNR {
			t.Fatalf("shard %d: MeanPSNR %v, Run on its sub-network %v (bitwise)", i, s.MeanPSNR, ref.MeanPSNR)
		}
	}
}

func TestRunShardedRejectsDiagnostics(t *testing.T) {
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(net, Options{Seed: 1, GOPs: 1, CaptureDualTrace: true}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("CaptureDualTrace: err=%v, want ErrBadOptions", err)
	}
	if _, err := RunSharded(nil, Options{Seed: 1, GOPs: 1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("nil network: err=%v, want ErrBadOptions", err)
	}
}

// TestRunShardedSurfacesShardError mirrors parallel_test.go's failure
// injection through the runShard seam: a failing shard must surface its
// component index and FBS list, for any worker count.
func TestRunShardedSurfacesShardError(t *testing.T) {
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.NonInterferingSpec(func() [][]video.Sequence {
		trio := video.PaperTrio()
		return [][]video.Sequence{trio[:], trio[:], trio[:]}
	}()))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	orig := runShard
	defer func() { runShard = orig }()
	runShard = func(n *netmodel.Network, o Options) (*Result, error) {
		if o.Seed == ShardSeed(7, 1) {
			return nil, boom
		}
		return orig(n, o)
	}
	for _, workers := range []int{1, 4} {
		_, err := RunSharded(net, Options{Seed: 7, GOPs: 1, Parallel: Parallelism{Workers: workers}})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "FBSs [2]") {
			t.Fatalf("workers=%d: error %q does not name shard 1 / FBS 2", workers, err)
		}
	}
}

// TestRunShardedRecoversShardPanic is the shard-fold panic-recovery
// regression: a panicking shard engine must come back as a "task N
// panicked" error through par.RunGrid's recovery, not crash the run.
func TestRunShardedRecoversShardPanic(t *testing.T) {
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.NonInterferingSpec(func() [][]video.Sequence {
		trio := video.PaperTrio()
		return [][]video.Sequence{trio[:], trio[:], trio[:]}
	}()))
	if err != nil {
		t.Fatal(err)
	}
	orig := runShard
	defer func() { runShard = orig }()
	runShard = func(n *netmodel.Network, o Options) (*Result, error) {
		if o.Seed == ShardSeed(7, 2) {
			panic("shard engine blew up")
		}
		return orig(n, o)
	}
	for _, workers := range []int{1, 4} {
		_, err := RunSharded(net, Options{Seed: 7, GOPs: 1, Parallel: Parallelism{Workers: workers}})
		if err == nil {
			t.Fatalf("workers=%d: want recovered panic error", workers)
		}
		// With one task per component, the panicking component is task 2.
		if !strings.Contains(err.Error(), "task 2 panicked") ||
			!strings.Contains(err.Error(), "shard engine blew up") {
			t.Fatalf("workers=%d: error %q does not carry the recovered panic", workers, err)
		}
	}
}
