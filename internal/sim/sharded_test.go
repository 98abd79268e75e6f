package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// must reproduce the unsharded engine exactly, for every Workers setting
// (run under -race by the tier-1 gate).
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
		// The paper topologies are connected: one shard, so one grid task
		// whatever the worker count.
		for _, workers := range []int{1, 2, 4} {
			opts := base
			opts.Parallel = Parallelism{Workers: workers}
			sh, err := RunSharded(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := b.name
			if sh.Shards != 1 {
				t.Fatalf("%s: %d shards for a connected network", label, sh.Shards)
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

// TestShardedInvariantAcrossShardsAndWorkers pins the determinism contract
// on a multi-component network: one task per shard over 1, 2 or 4 workers
// must fold to bitwise-identical results, and each shard must equal an
// independent unsharded run of its sub-network under its derived seed.
func TestShardedInvariantAcrossShardsAndWorkers(t *testing.T) {
	cfg := netmodel.DefaultConfig()
	trio := video.PaperTrio()
	net, err := netmodel.NewNetwork(cfg, netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 1000, GOPs: 20, Scheme: Proposed}

	var ref *ShardedResult
	for _, workers := range []int{1, 2, 4} {
		opts := base
		opts.Parallel = Parallelism{Workers: workers}
		got, err := RunSharded(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shards != 3 {
			t.Fatalf("shards=%d, want 3 components", got.Shards)
		}
		if got.Timing == nil || len(got.Timing.ShardNS) != 3 {
			t.Fatalf("timing = %+v, want 3 shard entries", got.Timing)
		}
		got.Timing = nil // the only schedule-dependent field
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: result differs from the first fold\n got: %+v\nwant: %+v", workers, got, ref)
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
	if _, err := RunSharded(net, Options{Seed: 1, GOPs: 1, DualTrace: 800}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("DualTrace: err=%v, want ErrBadOptions", err)
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

// TestRunShardedWorkersCappedAtCPUs counts the shards in flight through the
// runShard seam: asking for four workers per CPU must still run at most
// GOMAXPROCS shards at once, since extra workers only queue for a CPU and
// inflate the per-task wall times of ShardTiming.
func TestRunShardedWorkersCappedAtCPUs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	bus := video.PaperTrio()[0]
	groups := make([][]video.Sequence, 4*procs)
	for i := range groups {
		groups[i] = []video.Sequence{bus}
	}
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.NonInterferingSpec(groups))
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int32
	orig := runShard
	defer func() { runShard = orig }()
	runShard = func(n *netmodel.Network, o Options) (*Result, error) {
		now := inFlight.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // hold the slot so concurrent shards overlap
		inFlight.Add(-1)
		return orig(n, o)
	}
	res, err := RunSharded(net, Options{Seed: 1, GOPs: 1, Parallel: Parallelism{Workers: 4 * procs}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != len(groups) {
		t.Fatalf("%d shards, want %d", res.Shards, len(groups))
	}
	if got := int(peak.Load()); got > procs {
		t.Fatalf("%d shards ran at once with Workers=%d, want at most GOMAXPROCS=%d", got, 4*procs, procs)
	}
}
