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

	"femtocr/internal/core"
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
		{"single-eq-beliefs", single, Options{Seed: 3, GOPs: 4, Scheme: Proposed, Prior: BeliefPrior}},
		{"single-eq-estimate", single, Options{Seed: 4, GOPs: 4, Scheme: Proposed, Prior: EstimatedPrior}},
		{"noninterf-eq-s1", noninterf, Options{Seed: 1, GOPs: 4, Scheme: Proposed}},
		{"noninterf-eq-s2", noninterf, Options{Seed: 2, GOPs: 4, Scheme: Proposed}},
		{"interf-eq", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed}},
		{"interf-eq-bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, TrackBound: true}},
	}
}

// TestWarmStartMatchesColdAcrossConfigs is the snapshot-diff gate of the
// always-on warm starts: over the 8 sim configs, an engine run must equal
// the cold reference field for field (the solve counters are
// instrumentation metadata, zero in the cold reference, and are cleared
// before the comparison).
func TestWarmStartMatchesColdAcrossConfigs(t *testing.T) {
	for _, tc := range warmConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			coldOpts := tc.opts
			coldOpts.coldSolves = true
			cold, err := Run(tc.net, coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Run(tc.net, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			warm.Solves, warm.RelaxSolves = core.SessionStats{}, core.SessionStats{}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm run diverged from cold:\n warm %+v\n cold %+v", warm, cold)
			}
		})
	}
}

// TestEngineSessionWiring pins which sessions an engine carries: the
// zero-value options warm-start the slot solves, the relaxation session
// (and its buffers) exist only where the relaxation bound is tracked, and
// the cold reference carries none.
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
			if got := a.session != nil; got != tc.session {
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
}

// TestWarmReportStats checks the always-on solve counters that report the
// warm start (Result.Solves and RelaxSolves) on the default solver: one
// slot solve per slot on the single-FBS path with warm solves recorded;
// on the interfering path the greedy's Q evaluations are not session
// solves, while the tracked relaxation bound solves once per slot through
// its own session; and zero counters from the cold reference and the
// heuristics, which carry no sessions. The warm start's probe budget is
// pinned in core (TestWarmSessionProbeBudget).
func TestWarmReportStats(t *testing.T) {
	single := benchNet(t, false)
	res, err := Run(single, Options{Seed: 1, GOPs: 4, Scheme: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Solves; s.Solves != res.Slots || s.WarmSolves == 0 || s.TotalIters <= 0 {
		t.Errorf("single cell: counters %+v over %d slots, want one solve per slot, some warm", s, res.Slots)
	}
	if res.RelaxSolves != (core.SessionStats{}) {
		t.Errorf("single cell: relaxation counters %+v without a tracked bound", res.RelaxSolves)
	}

	interf := benchNet(t, true)
	res, err = Run(interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, TrackBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solves.Solves != 0 || res.RelaxSolves.Solves != res.Slots || res.RelaxSolves.WarmSolves == 0 {
		t.Errorf("interfering bound: slot counters %+v, relaxation counters %+v over %d slots",
			res.Solves, res.RelaxSolves, res.Slots)
	}

	for _, tc := range []struct {
		name string
		net  *netmodel.Network
		opts Options
	}{
		{"cold reference", single, Options{Seed: 1, GOPs: 4, Scheme: Proposed, coldSolves: true}},
		{"cold reference, bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Proposed, TrackBound: true, coldSolves: true}},
		{"heuristic 2", single, Options{Seed: 1, GOPs: 4, Scheme: Heuristic2}},
		{"heuristic 1, bound", interf, Options{Seed: 1, GOPs: 2, Scheme: Heuristic1, TrackBound: true}},
	} {
		res, err := Run(tc.net, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solves != (core.SessionStats{}) || res.RelaxSolves != (core.SessionStats{}) {
			t.Errorf("%s: counters %+v / %+v, want zero", tc.name, res.Solves, res.RelaxSolves)
		}
	}
}

// TestShardedWarmMatchesUnsharded extends the sharded bitwise contract to
// the warm starts: per-shard sessions must reproduce the unsharded warm
// engine exactly on a connected network, for any worker count, with the
// folded solve counters equal to Run's; on a multi-component network the
// fold must sum every shard's counters.
func TestShardedWarmMatchesUnsharded(t *testing.T) {
	net := benchNet(t, false)
	base := Options{Seed: 1000, GOPs: 4, Scheme: Proposed}
	ref, err := Run(net, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Parallel = Parallelism{Workers: workers}
		sh, err := RunSharded(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareShardedToRun(t, "warm-sharded", sh, ref)
		if sh.Solves != ref.Solves || sh.RelaxSolves != ref.RelaxSolves {
			t.Errorf("folded counters %+v / %+v, want %+v / %+v", sh.Solves, sh.RelaxSolves, ref.Solves, ref.RelaxSolves)
		}
	}

	// Multi-component fold: the counters must add across shards.
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
	if sh.Shards != 3 {
		t.Fatalf("shards=%d, want 3", sh.Shards)
	}
	var total core.SessionStats
	for c := range sh.PerShard {
		s := &sh.PerShard[c]
		if s.Solves.Solves != s.Slots {
			t.Errorf("shard %d: %d solves over %d slots", c, s.Solves.Solves, s.Slots)
		}
		total.Merge(&s.Solves)
	}
	if sh.Solves != total {
		t.Errorf("folded counters %+v, shards merge to %+v", sh.Solves, total)
	}
	if sh.Solves.Solves != 3*sh.Slots {
		t.Errorf("folded %d solves, want %d over 3 shards", sh.Solves.Solves, 3*sh.Slots)
	}
}
