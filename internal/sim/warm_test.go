package sim

// Warm-start equivalence gates at the simulation layer. The cross-slot
// solver sessions and the seeded greedy Q evaluations change only how many
// iterations each solve burns; every simulated quantity — allocations,
// realized losses, PSNR trajectories — must be identical to the cold
// reference (Options.coldSolves), across the full config grid and the
// sharded runner. Any config where they differ is a bug in the warm path,
// not tolerance noise, because the discrete repair step is required to
// absorb converged-price differences exactly.

import (
	"reflect"
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/video"
)

// warmConfigs is the 8-config snapshot grid: every scheme-relevant
// combination of deployment, bound tracking, fusion prior, and seed that
// exercises a distinct slot-solve path.
func warmConfigs(t *testing.T) []struct {
	name string
	net  *netmodel.Network
	opts Options
} {
	t.Helper()
	cfg := netmodel.DefaultConfig()
	single, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	interf, err := netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	trio := video.PaperTrio()
	noninterf, err := netmodel.NewNetwork(cfg, netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		net  *netmodel.Network
		opts Options
	}{
		{"single-eq-s1", single, Options{Seed: 1, GOPs: 4, Scheme: Proposed}},
		{"single-eq-s2", single, Options{Seed: 2, GOPs: 4, Scheme: Proposed}},
		{"single-eq-beliefs", single, Options{Seed: 3, GOPs: 4, Scheme: Proposed, TrackBeliefs: true}},
		{"single-eq-estimate", single, Options{Seed: 4, GOPs: 4, Scheme: Proposed, EstimateUtilization: true}},
		{"noninterf-eq-s1", noninterf, Options{Seed: 1, GOPs: 4, Scheme: Proposed}},
		{"noninterf-eq-s2", noninterf, Options{Seed: 2, GOPs: 4, Scheme: Proposed}},
		{"interf-eq", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed}},
		{"interf-eq-bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, TrackBound: true}},
	}
}

// TestWarmStartMatchesColdAcrossConfigs is the snapshot-diff gate of the
// always-on warm starts: over the 8 sim configs, an engine run must equal
// the cold reference field for field (Warm is instrumentation metadata and
// is cleared before the comparison).
func TestWarmStartMatchesColdAcrossConfigs(t *testing.T) {
	for _, tc := range warmConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			coldOpts := tc.opts
			coldOpts.coldSolves = true
			cold, err := Run(tc.net, coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			warmOpts := tc.opts
			warmOpts.SolveStats = true
			warm, err := Run(tc.net, warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			warm.Warm = nil
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm run diverged from cold:\n warm %+v\n cold %+v", warm, cold)
			}
		})
	}
}

// TestEngineSessionWiring pins which sessions an engine carries: the
// zero-value options warm-start the slot solves, the relaxation session
// (and its buffers) exist only where the relaxation bound is tracked, the
// cold reference carries none, and no warm metadata is reported without
// SolveStats.
func TestEngineSessionWiring(t *testing.T) {
	single := benchNet(t, false)
	interf := benchNet(t, true)
	for _, tc := range []struct {
		name                  string
		net                   *netmodel.Network
		opts                  Options
		session, relaxSession bool
		relaxBuffers          bool
	}{
		{"single", single, Options{Scheme: Proposed}, true, false, false},
		{"single-bound", single, Options{Scheme: Proposed, TrackBound: true}, true, false, false},
		{"interf", interf, Options{Scheme: Proposed}, true, false, false},
		{"interf-bound", interf, Options{Scheme: Proposed, TrackBound: true}, true, true, true},
		{"heuristic2-bound", interf, Options{Scheme: Heuristic2, TrackBound: true}, false, false, false},
		{"cold-reference", interf, Options{Scheme: Proposed, TrackBound: true, coldSolves: true}, false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := newEngine(tc.net, tc.opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			a := e.stage
			if got := a.session != nil && a.warm != nil; got != tc.session {
				t.Errorf("slot session present = %v, want %v", got, tc.session)
			}
			if got := a.relaxSession != nil; got != tc.relaxSession {
				t.Errorf("relaxation session present = %v, want %v", got, tc.relaxSession)
			}
			if got := a.relaxAlloc != nil && a.relaxG != nil; got != tc.relaxBuffers {
				t.Errorf("relaxation buffers present = %v, want %v", got, tc.relaxBuffers)
			}
		})
	}
	res, err := Run(single, Options{Seed: 1, GOPs: 1, Scheme: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm != nil {
		t.Fatal("Result.Warm populated without SolveStats")
	}
}

// TestHistQuantileNearestRank pins the nearest-rank convention on odd and
// even counts: the q-quantile is the smallest iteration count with at least
// ceil(q·n) solves at or below it.
func TestHistQuantileNearestRank(t *testing.T) {
	hist := func(iters ...int) []int64 {
		h := make([]int64, 64)
		for _, it := range iters {
			h[it]++
		}
		return h
	}
	upTo := func(n int) []int64 {
		h := make([]int64, 128)
		for it := 1; it <= n; it++ {
			h[it]++
		}
		return h
	}
	cases := []struct {
		hist   []int64
		solves int
		q      float64
		want   int
	}{
		{hist(5, 20, 40), 3, 0.5, 20},
		{hist(5, 20, 40), 3, 0, 5},
		{hist(5, 20, 40), 3, 0.34, 20},
		{hist(5, 20, 40), 3, 1, 40},
		{hist(3, 9), 2, 0.5, 3},
		{upTo(15), 15, 0.9, 14},
		{upTo(15), 15, 0.5, 8},
		{upTo(100), 100, 0.07, 7},
		{upTo(100), 100, 0.99, 99},
		{nil, 0, 0.5, -1},
	}
	for _, c := range cases {
		if got := histQuantile(c.hist, c.solves, c.q); got != c.want {
			t.Errorf("%d solves, q=%v: quantile %d, want %d", c.solves, c.q, got, c.want)
		}
	}
}

// TestWarmReportStats checks the instrumentation itself on the default
// solver: one slot solve per slot on the single-FBS path, warm solves
// recorded, quantiles in order, and no report from the cold reference,
// which carries no sessions. The warm start's probe budget is pinned in
// core (TestWarmSessionProbeBudget).
func TestWarmReportStats(t *testing.T) {
	net := benchNet(t, false)
	opts := Options{Seed: 1, GOPs: 4, Scheme: Proposed, SolveStats: true}
	res, err := Run(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Warm
	if w == nil {
		t.Fatal("Result.Warm is nil with SolveStats set")
	}
	if w.Stats.Solves != res.Slots {
		t.Errorf("%d solves over %d slots", w.Stats.Solves, res.Slots)
	}
	if w.Stats.WarmSolves == 0 {
		t.Error("no warm solve recorded")
	}
	if !(w.IterP50 <= w.IterP90 && w.IterP90 <= w.IterP99 && w.IterP99 <= w.IterMax) {
		t.Errorf("quantiles out of order: p50=%d p90=%d p99=%d max=%d",
			w.IterP50, w.IterP90, w.IterP99, w.IterMax)
	}
	if w.IterMean <= 0 {
		t.Errorf("IterMean = %v", w.IterMean)
	}
	opts.coldSolves = true
	cold, err := Run(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm != nil {
		t.Error("the cold reference reported warm-start statistics")
	}
}

// TestShardedWarmMatchesUnsharded extends the sharded bitwise contract to
// warm runs: per-shard sessions must reproduce the unsharded warm engine
// exactly on a connected network, for any grouping, and the folded warm
// report must account for every shard's solves.
func TestShardedWarmMatchesUnsharded(t *testing.T) {
	net := benchNet(t, false)
	base := Options{Seed: 1000, GOPs: 4, Scheme: Proposed, SolveStats: true}
	ref, err := Run(net, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Parallel = Parallelism{Workers: workers, Shards: 2}
		sh, err := RunSharded(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareShardedToRun(t, "warm-sharded", sh, ref)
		if sh.Warm == nil {
			t.Fatal("sharded warm report missing")
		}
		if !reflect.DeepEqual(sh.Warm, ref.Warm) {
			t.Errorf("folded warm report %+v, want %+v", sh.Warm, ref.Warm)
		}
	}

	// Multi-component fold: solves must add across shards.
	cfg := netmodel.DefaultConfig()
	trio := video.PaperTrio()
	multi, err := netmodel.NewNetwork(cfg, netmodel.NonInterferingSpec([][]video.Sequence{trio[:], trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Parallel = Parallelism{Workers: 2}
	sh, err := RunSharded(multi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards != 3 || sh.Warm == nil {
		t.Fatalf("shards=%d warm=%v", sh.Shards, sh.Warm)
	}
	total := 0
	for _, s := range sh.PerShard {
		if s.Warm == nil {
			t.Fatal("shard missing warm summary")
		}
		total += s.Warm.Stats.Solves
	}
	if sh.Warm.Stats.Solves != total {
		t.Errorf("folded solves %d, shards sum to %d", sh.Warm.Stats.Solves, total)
	}
}
