package sim

import (
	"fmt"
	"math"
	"time"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/par"
	"femtocr/internal/stats"
)

// ShardSeedStride separates consecutive shards' seed spaces by the 64-bit
// golden-ratio constant, so a metro run's shards draw decorrelated
// randomness while shard 0 keeps the base seed exactly — which is what
// makes a connected (single-component) sharded run reduce bit for bit to
// the unsharded engine. Replication loops step seeds by +1, so the stride
// also keeps shard streams clear of neighboring replications.
const ShardSeedStride uint64 = 0x9E3779B97F4A7C15

// ShardSeed returns the seed the shard of interference component c derives
// all its randomness from: base for c=0, then base + c*ShardSeedStride.
func ShardSeed(base uint64, c int) uint64 {
	return base + uint64(c)*ShardSeedStride
}

// ShardSummary is the fixed-size reduction of one shard's simulation — the
// only per-shard state the fold retains, which is what keeps RunSharded's
// result memory O(shards) instead of O(users).
type ShardSummary struct {
	// Component is the interference-graph component index of the shard.
	Component int
	// FBSs and Users are the shard's sizes.
	FBSs  int
	Users int
	// Seed is the shard's derived base seed (ShardSeed of the run seed).
	Seed uint64

	// MeanPSNR, MinUserPSNR, FairnessIndex, CollisionRate and
	// MeanExpectedChannels mirror the shard run's Result fields.
	MeanPSNR             float64
	MinUserPSNR          float64
	FairnessIndex        float64
	CollisionRate        float64
	MeanExpectedChannels float64
	// GOPs and Slots are the shard run's horizon.
	GOPs  int
	Slots int

	// SumPSNR and SumBound re-sum the shard's per-user (bound) quality in
	// ascending user order — the exact partial sums the engine's own mean
	// computation accumulates, so the cross-shard fold reproduces the
	// unsharded arithmetic bitwise on a single shard.
	SumPSNR  float64
	SumBound float64
	// Gains carries the sufficient statistics of Jain's index over the
	// shard's per-user quality gains.
	Gains stats.JainAccumulator
	// PSNR accumulates the shard's per-user PSNR distribution; the fold
	// merges these in ascending component order. Per-shard wall time lives
	// in ShardTiming, not here, so PerShard stays schedule-independent.
	PSNR stats.Running

	// Solves and RelaxSolves are the shard run's Result counters.
	Solves      core.SessionStats
	RelaxSolves core.SessionStats
}

// ShardTiming is the nanosecond accounting of one sharded run, which runs
// one grid task per shard. Wall-clock speedup is hardware-capped (a 1-CPU
// container pins it at ~1.0 regardless of workers), so scaling claims are
// made from this bookkeeping instead: SumTaskNS is the serialized work,
// MaxTaskNS the critical path, and their ratio the speedup a perfectly
// parallel machine would reach. Every time here is a wall time. The run
// uses at most GOMAXPROCS workers (par.Parallelism), so a task's time is
// its CPU time only while no other process contends for the CPUs.
type ShardTiming struct {
	// WallNS is the end-to-end wall time of the sharded run.
	WallNS int64
	// ShardNS is the per-shard engine wall time, indexed like PerShard.
	ShardNS []int64
	// SumTaskNS and MaxTaskNS sum and maximize the shards' grid-task wall
	// times, each of which also builds its shard's sub-network.
	SumTaskNS int64
	MaxTaskNS int64
}

// IdealSpeedup returns SumTaskNS/MaxTaskNS: the speedup of the run on
// enough CPUs, independent of the wall clock of the machine that ran it.
func (t *ShardTiming) IdealSpeedup() float64 {
	if t == nil || t.MaxTaskNS <= 0 {
		return 0
	}
	return float64(t.SumTaskNS) / float64(t.MaxTaskNS)
}

// ShardedResult aggregates a sharded run. All quality fields are folded in
// ascending component order from fixed-size shard summaries, so they are
// bitwise-deterministic for any Workers setting; Timing is the only
// schedule-dependent field.
type ShardedResult struct {
	// MeanPSNR is the user-population mean quality, folded as
	// sum(per-shard user sums)/K — bitwise-equal to Run's MeanPSNR on a
	// connected network.
	MeanPSNR float64
	// BoundPSNR is the mean upper-bound quality (TrackBound runs of
	// Proposed only; see Options.TrackBound).
	BoundPSNR float64
	// MinUserPSNR is the worst per-user mean quality across every shard.
	MinUserPSNR float64
	// FairnessIndex is Jain's index over all users' quality gains, folded
	// from per-shard sufficient statistics.
	FairnessIndex float64
	// CollisionRate is the worst per-channel conditional collision rate
	// observed in any shard.
	CollisionRate float64
	// MeanExpectedChannels averages the shards' per-slot expected available
	// channels (each shard senses the full band independently).
	MeanExpectedChannels float64
	// GOPs and Slots are the common simulation horizon.
	GOPs  int
	Slots int

	// Users, FBSs and Shards describe the decomposition: Shards is the
	// number of interference components that serve users (a component
	// without users has nothing to simulate and is skipped).
	Users  int
	FBSs   int
	Shards int

	// PSNR summarizes the per-user quality distribution streamed through
	// stats.Running.Merge in ascending component order (N = Users).
	PSNR stats.Summary

	// Solves and RelaxSolves merge the shards' Result counters
	// (core.SessionStats.Merge, in ascending component order).
	Solves      core.SessionStats
	RelaxSolves core.SessionStats

	// PerShard holds every shard's fixed-size summary, ascending by
	// component.
	PerShard []ShardSummary

	// Timing is the per-task ns accounting (nil-able, schedule-dependent;
	// exclude it from determinism comparisons).
	Timing *ShardTiming `json:",omitempty"`
}

// runShard is the per-shard engine entry point — a seam so tests can inject
// shard failures and panics without crafting a degenerate network.
var runShard = Run

// RunSharded simulates the network by decomposing its interference graph
// into connected components (shards) and running the unsharded engine on
// each independently: every shard gets its own MBS capacity slice, sensing
// fusion domain, and seed stream (ShardSeed of its component index); a
// component whose FBSs serve no users has nothing to simulate and is
// skipped (netmodel.Network.Partition). Each shard is one par.RunGrid task
// over opts.Parallel.EffectiveWorkers() workers (at most GOMAXPROCS),
// which reduces its shard to a fixed-size summary in the shard's own slot;
// after the join the summaries fold in ascending component order, so the
// result is bitwise-identical for any Workers setting. On a connected
// network the decomposition is trivial and every quality field matches Run
// exactly, bit for bit.
//
// Run and RunSharded agree only when the components truly are independent
// coordination domains: on a multi-component network the unsharded engine
// couples components through the shared MBS budget and network-wide
// sensing fusion, so the two engines answer slightly different questions
// (one macro sector vs one per cluster) and only the connected case is
// comparable.
//
// Recorder and DualTrace are per-engine diagnostics that cannot be folded
// and are rejected.
func RunSharded(net *netmodel.Network, opts Options) (*ShardedResult, error) {
	if opts.Recorder != nil {
		return nil, fmt.Errorf("%w: Recorder is not supported by RunSharded (trace one shard with Run instead)", ErrBadOptions)
	}
	if opts.DualTrace != 0 {
		return nil, fmt.Errorf("%w: DualTrace is not supported by RunSharded (trace one shard with Run instead)", ErrBadOptions)
	}
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadOptions)
	}
	shards, err := net.Partition()
	if err != nil {
		return nil, err
	}
	numShards := len(shards)
	if numShards == 0 {
		return nil, fmt.Errorf("%w: no shards to run", ErrBadOptions)
	}

	start := time.Now() //femtovet:ignore randsource -- ShardTiming is profiling metadata; no simulated quantity reads the wall clock
	perShard := make([]ShardSummary, numShards)
	taskNS := make([]int64, numShards)
	shardNS := make([]int64, numShards)
	gridErr := par.RunGrid(numShards, opts.Parallel.EffectiveWorkers(), func(c int) error {
		t0 := time.Now() //femtovet:ignore randsource -- per-task ns accounting (ShardTiming.SumTaskNS), not simulation state
		sub, err := net.Subnetwork(&shards[c])
		if err != nil {
			return fmt.Errorf("shard %d (FBSs %v): %w", shards[c].Component, shards[c].FBSs, err)
		}
		shardOpts := opts
		shardOpts.Seed = ShardSeed(opts.Seed, shards[c].Component)
		shardOpts.Parallel = Parallelism{}
		s0 := time.Now() //femtovet:ignore randsource -- per-shard ns accounting (ShardTiming.ShardNS), not simulation state
		res, err := runShard(sub, shardOpts)
		if err != nil {
			return fmt.Errorf("shard %d (FBSs %v): %w", shards[c].Component, shards[c].FBSs, err)
		}
		perShard[c] = reduceShard(shards[c].Component, shardOpts.Seed, sub, res)
		shardNS[c] = time.Since(s0).Nanoseconds()
		taskNS[c] = time.Since(t0).Nanoseconds()
		return nil
	})
	if gridErr != nil {
		return nil, gridErr
	}
	out := foldShards(net, perShard)
	timing := &ShardTiming{WallNS: time.Since(start).Nanoseconds(), ShardNS: shardNS}
	for _, ns := range taskNS {
		timing.SumTaskNS += ns
		if ns > timing.MaxTaskNS {
			timing.MaxTaskNS = ns
		}
	}
	out.Timing = timing
	return out, nil
}

// reduceShard compresses one shard's full Result into the fixed-size
// summary the fold keeps. Per-user slices are re-summed in ascending user
// order — the same order and arithmetic the engine itself used — before
// being dropped.
func reduceShard(component int, seed uint64, sub *netmodel.Network, res *Result) ShardSummary {
	s := ShardSummary{
		Component:            component,
		FBSs:                 sub.NumFBS,
		Users:                len(res.PerUserPSNR),
		Seed:                 seed,
		MeanPSNR:             res.MeanPSNR,
		MinUserPSNR:          res.MinUserPSNR,
		FairnessIndex:        res.FairnessIndex,
		CollisionRate:        res.CollisionRate,
		MeanExpectedChannels: res.MeanExpectedChannels,
		GOPs:                 res.GOPs,
		Slots:                res.Slots,
		Solves:               res.Solves,
		RelaxSolves:          res.RelaxSolves,
	}
	for j, v := range res.PerUserPSNR {
		s.SumPSNR += v
		s.PSNR.Add(v)
		s.Gains.Add(v - sub.Users[j].Seq.RD.Alpha)
	}
	for _, v := range res.PerUserBound {
		s.SumBound += v
	}
	return s
}

// foldShards aggregates the per-shard summaries in ascending component
// order. The fold arithmetic deliberately mirrors the unsharded engine's
// result() so a single-component fold is a bitwise no-op: the PSNR sum
// starts at zero and ends divided by K, the Jain statistics merge into an
// empty accumulator (an exact copy), min/max folds compare against
// identities, and the G average divides by the shard count (x/1 exact).
func foldShards(net *netmodel.Network, perShard []ShardSummary) *ShardedResult {
	out := &ShardedResult{
		Users:       net.K(),
		FBSs:        net.NumFBS,
		Shards:      len(perShard),
		GOPs:        perShard[0].GOPs,
		Slots:       perShard[0].Slots,
		MinUserPSNR: math.Inf(1),
		PerShard:    perShard,
	}
	var psnrAcc stats.Running
	var gains stats.JainAccumulator
	sum, boundSum, gSum := 0.0, 0.0, 0.0
	trackBound := false
	for c := range perShard {
		s := &perShard[c]
		sum += s.SumPSNR
		if s.SumBound != 0 {
			trackBound = true
		}
		boundSum += s.SumBound
		if s.MinUserPSNR < out.MinUserPSNR {
			out.MinUserPSNR = s.MinUserPSNR
		}
		if s.CollisionRate > out.CollisionRate {
			out.CollisionRate = s.CollisionRate
		}
		gSum += s.MeanExpectedChannels
		psnrAcc.Merge(&s.PSNR)
		gains.Merge(&s.Gains)
		out.Solves.Merge(&s.Solves)
		out.RelaxSolves.Merge(&s.RelaxSolves)
	}
	k := float64(out.Users)
	out.MeanPSNR = sum / k
	if trackBound {
		out.BoundPSNR = boundSum / k
	}
	out.FairnessIndex = gains.Index()
	out.MeanExpectedChannels = gSum / float64(len(perShard))
	// Summary errors only on an empty accumulator; Partition guarantees at
	// least one user per shard.
	out.PSNR, _ = psnrAcc.Summary()
	return out
}
