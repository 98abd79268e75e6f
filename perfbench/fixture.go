package main

import (
	"fmt"
	"math"
	"time"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

// fixture is a plan's built deployments: the program's inputs, made once by
// setup and reused by every op.
type fixture struct {
	p       *plan
	nets    []*netmodel.Network
	ranges  []qualityRange
	workers int
	// Partition facts of deployment 0 (one shard for connected networks).
	shards, largestShardUsers int
	buildNS                   int64 // NewNetwork time of this setup
}

// setup builds every deployment with netmodel.NewNetwork, then constructs
// the first engine: one GOP through sim.Run on the first deployment or, for
// a sharded plan, on the sub-network of its largest shard.
func setup(p *plan, workers int) (*fixture, error) {
	f := &fixture{p: p, workers: workers}
	t0 := now()
	for _, ns := range p.nets {
		net, err := netmodel.NewNetwork(ns.cfg, ns.spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ns.label, err)
		}
		f.nets = append(f.nets, net)
	}
	f.buildNS = int64(time.Since(t0))
	for _, net := range f.nets {
		f.ranges = append(f.ranges, newQualityRange(net))
	}

	first := f.nets[0]
	shards, err := first.Partition()
	if err != nil {
		return nil, err
	}
	f.shards = len(shards)
	largest := 0
	for c := range shards {
		if len(shards[c].Users) > len(shards[largest].Users) {
			largest = c
		}
	}
	f.largestShardUsers = len(shards[largest].Users)
	if p.sharded {
		if first, err = first.Subnetwork(&shards[largest]); err != nil {
			return nil, err
		}
	}
	if _, err := sim.Run(first, sim.Options{Seed: p.seed, GOPs: 1, TrackBound: p.trackBound}); err != nil {
		return nil, fmt.Errorf("first engine: %w", err)
	}
	return f, nil
}

// options are the engine options of op i.
func (f *fixture) options(op opSpec) sim.Options {
	return sim.Options{
		Seed:       op.seed,
		GOPs:       f.p.gops,
		TrackBound: f.p.trackBound,
		Parallel:   sim.Parallelism{Workers: f.workers},
	}
}

// run executes op i through the engine's public entry point.
func (f *fixture) run(i int) (*opResult, *sim.ShardTiming, error) {
	op := f.p.op(i)
	net := f.nets[op.net]
	if f.p.sharded {
		res, err := sim.RunSharded(net, f.options(op))
		if err != nil {
			return nil, nil, err
		}
		r := &opResult{
			mean: res.MeanPSNR, minUser: res.MinUserPSNR, maxUser: math.Inf(-1),
			users: res.Users, slots: res.Slots, gops: res.GOPs,
		}
		for c := range res.PerShard {
			r.maxUser = math.Max(r.maxUser, res.PerShard[c].PSNR.Max())
		}
		return r, res.Timing, nil
	}
	res, err := sim.Run(net, f.options(op))
	if err != nil {
		return nil, nil, err
	}
	return &opResult{
		mean: res.MeanPSNR, bound: res.BoundPSNR,
		perUser: res.PerUserPSNR, perUserBound: res.PerUserBound,
		users: net.K(), slots: res.Slots, gops: res.GOPs,
	}, nil, nil
}

// replay executes op i through the traced replay.
func (f *fixture) replay(i int, tr *tracer) (*opResult, error) {
	op := f.p.op(i)
	net := f.nets[op.net]
	sp := tr.beginOp(i)
	defer tr.end(sp)
	if f.p.sharded {
		return replaySharded(net, op.seed, f.p.gops, tr, sp)
	}
	return replayRun(net, op.seed, f.p.gops, f.p.trackBound, tr, sp)
}

// sameOutputs reports whether the replay reproduced the engine bitwise.
func sameOutputs(engine, replay *opResult) error {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !eq(engine.mean, replay.mean):
		return fmt.Errorf("replay mean PSNR %.17g, engine %.17g", replay.mean, engine.mean)
	case !eq(engine.bound, replay.bound):
		return fmt.Errorf("replay bound PSNR %.17g, engine %.17g", replay.bound, engine.bound)
	case !eq(engine.minUser, replay.minUser) || !eq(engine.maxUser, replay.maxUser):
		return fmt.Errorf("replay per-user PSNR range [%.17g, %.17g], engine [%.17g, %.17g]",
			replay.minUser, replay.maxUser, engine.minUser, engine.maxUser)
	case engine.slots != replay.slots || engine.gops != replay.gops || engine.users != replay.users:
		return fmt.Errorf("replay ran %d users x %d slots (%d GOPs), engine %d x %d (%d)",
			replay.users, replay.slots, replay.gops, engine.users, engine.slots, engine.gops)
	}
	for j := range engine.perUser {
		if !eq(engine.perUser[j], replay.perUser[j]) {
			return fmt.Errorf("replay user %d PSNR %.17g, engine %.17g", j, replay.perUser[j], engine.perUser[j])
		}
	}
	for j := range engine.perUserBound {
		if !eq(engine.perUserBound[j], replay.perUserBound[j]) {
			return fmt.Errorf("replay user %d bound PSNR %.17g, engine %.17g", j, replay.perUserBound[j], engine.perUserBound[j])
		}
	}
	return nil
}
