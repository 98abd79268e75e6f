package main

import (
	"fmt"
	"math"

	"femtocr/internal/core"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/sim"
	"femtocr/internal/spectrum"
	"femtocr/internal/video"
)

// The traced replay: the slot loop of sim.Run (Proposed scheme, default
// options), rebuilt from each layer's public functions so that every layer
// call can carry a span. It must reproduce the engine's outputs bit for
// bit; the benchmark compares every replayed op against the engine op on
// the same inputs and counts a mismatch as a failed op.
//
// Per slot: sim.Frontend.Step (occupancy, sensing, fusion, access) →
// core.GreedyAllocator.Allocate on interfering deployments, or the static
// channel plan and core.EquilibriumSolver.SolveInto otherwise → fading
// Link.Lost draws and video.Progress accounting. TrackBound adds the
// interference-relaxation solve and the bound trajectory's own fading
// draws, in the engine's order.

// replayRun replays sim.Run(net, {Seed: seed, GOPs: gops, TrackBound:
// trackBound}) under parent (nil for an op of its own).
func replayRun(net *netmodel.Network, seed uint64, gops int, trackBound bool, tr *tracer, parent *span) (*opResult, error) {
	// Engine construction, in the engine's stream-split order.
	root := rng.New(seed)
	front, err := sim.NewFrontend(net, root, sensing.RoundRobin)
	if err != nil {
		return nil, err
	}
	fade := root.Split("fading")

	k := net.K()
	e := &replayEngine{
		net:         net,
		progress:    make([]*video.Progress, k),
		r0:          make([]float64, k),
		r1:          make([]float64, k),
		fade:        fade,
		solver:      &core.EquilibriumSolver{},
		interfering: net.Graph.NumEdges() > 0,
		gains:       make([]float64, k),
		tr:          tr,
	}
	ps0, ps1, wmax, fbsOf := make([]float64, k), make([]float64, k), make([]float64, k), make([]int, k)
	for j, u := range net.Users {
		e.progress[j] = video.NewProgress(u.Seq)
		e.r0[j] = u.Seq.RD.Beta * net.Band.B0() / float64(net.T)
		e.r1[j] = u.Seq.RD.Beta * net.Band.B1() / float64(net.T)
		ps0[j] = u.MBSLink.SuccessProbability()
		ps1[j] = u.FBSLink.SuccessProbability()
		wmax[j] = u.Seq.MaxPSNR()
		fbsOf[j] = u.FBS
	}
	if trackBound {
		e.bound = make([]*video.Progress, k)
		for j, u := range net.Users {
			e.bound[j] = video.NewProgress(u.Seq)
		}
		e.inflate = core.NewAllocation(k)
	}
	if e.interfering {
		e.greedy = core.NewGreedyAllocator(e.solver, core.WithLazyEvaluation())
	}
	e.instW = make([]float64, k)
	e.instG = make([]float64, net.NumFBS)
	e.inst = core.Instance{W: e.instW, R0: e.r0, R1: e.r1, PS0: ps0, PS1: ps1, FBS: fbsOf, G: e.instG, WMax: wmax}
	e.gVec = make([]float64, net.NumFBS)
	e.relaxG = make([]float64, net.NumFBS)
	e.assigned = make([][]int, net.NumFBS)
	e.alloc = core.NewAllocation(k)
	e.relaxAlloc = core.NewAllocation(k)

	total := gops * net.T
	for slot := 0; slot < total; slot++ {
		sp := tr.begin(layerFrontend, parent)
		st, err := front.Step(slot)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
		if tr != nil {
			tr.counts.slots++
			tr.counts.accessed += int64(len(st.Accessed))
		}
		if err := e.step(slot, st, trackBound, parent); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return e.result(gops), nil
}

// replayEngine is the replay's per-run state, mirroring sim's engine.
type replayEngine struct {
	net         *netmodel.Network
	progress    []*video.Progress
	bound       []*video.Progress
	r0, r1      []float64
	fade        *rng.Stream
	solver      *core.EquilibriumSolver
	greedy      *core.GreedyAllocator
	interfering bool
	tr          *tracer

	inst, view          core.Instance
	instW, instG        []float64
	gVec, relaxG, gains []float64
	assigned            [][]int
	alloc, relaxAlloc   *core.Allocation
	inflate             *core.Allocation
	chanProb            core.ChannelProblem
}

// withG returns the slot instance with expected-channel vector g.
func (e *replayEngine) withG(g []float64) *core.Instance {
	e.view = e.inst
	e.view.G = g
	return &e.view
}

// solve runs one traced SolveInto.
func (e *replayEngine) solve(in *core.Instance, out *core.Allocation, parent *span) error {
	sp := e.tr.begin(layerSolve, parent)
	err := e.solver.SolveInto(in, out)
	e.tr.end(sp)
	if e.tr != nil {
		e.tr.counts.solves++
	}
	return err
}

func (e *replayEngine) step(slot int, st *sim.SlotState, trackBound bool, parent *span) error {
	for j := range e.instW {
		e.instW[j] = e.progress[j].PSNR()
	}
	for i := range e.instG {
		e.instG[i] = 0
	}
	if e.interfering {
		e.chanProb = core.ChannelProblem{Base: &e.inst, Graph: e.net.Graph, Channels: st.Accessed, Posteriors: st.AccessedPA}
		sp := e.tr.begin(layerGreedy, parent)
		res, err := e.greedy.Allocate(&e.chanProb)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		if e.tr != nil {
			e.tr.counts.qEvals += int64(res.Evaluations)
			e.tr.counts.steps += int64(len(res.Steps))
		}
		bound := res.UpperBound
		if trackBound {
			totalPA := 0.0
			for _, pa := range st.AccessedPA {
				totalPA += pa
			}
			for i := range e.relaxG {
				e.relaxG[i] = totalPA
			}
			relaxed := e.withG(e.relaxG)
			if err := e.solve(relaxed, e.relaxAlloc, parent); err != nil {
				return err
			}
			if v := e.relaxAlloc.Objective(relaxed); v < bound {
				bound = v
			}
		}
		e.realize(e.withG(res.G), res.Alloc, res.Assigned, st.Truth, parent)
		if trackBound {
			theta := gainInflation(e.withG(res.G), res.Alloc, res.Value, bound, e.inflate)
			e.realizeBound(e.withG(res.G), res.Alloc, theta, res.Assigned, st.Truth, parent)
		}
	} else {
		// Non-interfering: every FBS reuses every accessed channel.
		for i := range e.assigned {
			e.assigned[i] = append(e.assigned[i][:0], st.Accessed...)
		}
		for i := range e.gVec {
			e.gVec[i] = 0
			for _, ch := range e.assigned[i] {
				e.gVec[i] += st.Decision.Channels[ch-1].Posterior
			}
		}
		withG := e.withG(e.gVec)
		if err := e.solve(withG, e.alloc, parent); err != nil {
			return err
		}
		e.realize(withG, e.alloc, e.assigned, st.Truth, parent)
	}
	if (slot+1)%e.net.T == 0 {
		for _, p := range e.progress {
			p.EndGOP()
		}
		for _, p := range e.bound {
			p.EndGOP()
		}
	}
	return nil
}

// gain draws one user's packet-loss outcome and returns the realized
// quality increment: an MBS user succeeds iff its macro link decodes, an
// FBS user's rate scales with the truly idle channels of its FBS.
func (e *replayEngine) gain(in *core.Instance, alloc *core.Allocation, j int, assigned [][]int, truth spectrum.Occupancy) float64 {
	u := &e.net.Users[j]
	if alloc.MBS[j] {
		if alloc.Rho0[j] > 0 && !u.MBSLink.Lost(e.fade) {
			return alloc.Rho0[j] * e.r0[j]
		}
		return 0
	}
	if alloc.Rho1[j] > 0 {
		idle := 0
		for _, ch := range assigned[in.FBS[j]-1] {
			if truth.Idle(ch) {
				idle++
			}
		}
		if idle > 0 && !u.FBSLink.Lost(e.fade) {
			return alloc.Rho1[j] * float64(idle) * e.r1[j]
		}
	}
	return 0
}

func (e *replayEngine) realize(in *core.Instance, alloc *core.Allocation, assigned [][]int, truth spectrum.Occupancy, parent *span) {
	sp := e.tr.begin(layerRealize, parent)
	for j := 0; j < in.K(); j++ {
		e.gains[j] = e.gain(in, alloc, j, assigned, truth)
		e.progress[j].AddPSNR(e.gains[j])
	}
	e.tr.end(sp)
}

// realizeBound advances the upper-bound trajectory with its own draws.
func (e *replayEngine) realizeBound(in *core.Instance, alloc *core.Allocation, theta float64, assigned [][]int, truth spectrum.Occupancy, parent *span) {
	sp := e.tr.begin(layerRealize, parent)
	for j := 0; j < in.K(); j++ {
		e.bound[j].AddPSNR(theta * e.gain(in, alloc, j, assigned, truth))
	}
	e.tr.end(sp)
}

// gainInflation mirrors the engine's bisection for the common factor
// theta >= 1 that lifts the slot objective from value to upper.
func gainInflation(in *core.Instance, alloc *core.Allocation, value, upper float64, scratch *core.Allocation) float64 {
	if upper <= value {
		return 1
	}
	obj := func(theta float64) float64 {
		copy(scratch.MBS, alloc.MBS)
		for j := range scratch.Rho0 {
			scratch.Rho0[j] = alloc.Rho0[j] * theta
			scratch.Rho1[j] = alloc.Rho1[j] * theta
		}
		return scratch.Objective(in)
	}
	lo, hi := 1.0, 2.0
	for i := 0; i < 40 && obj(hi) < upper; i++ {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if obj(mid) < upper {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// result folds the run the way sim's engine does.
func (e *replayEngine) result(gops int) *opResult {
	k := e.net.K()
	r := &opResult{perUser: make([]float64, k), users: k, slots: gops * e.net.T, gops: e.progress[0].CompletedGOPs()}
	sum := 0.0
	for j, p := range e.progress {
		r.perUser[j] = p.MeanPSNR()
		sum += p.MeanPSNR()
	}
	r.mean = sum / float64(k)
	if e.bound != nil {
		r.perUserBound = make([]float64, k)
		bsum := 0.0
		for j, p := range e.bound {
			r.perUserBound[j] = p.MeanPSNR()
			bsum += p.MeanPSNR()
		}
		r.bound = bsum / float64(k)
	}
	return r
}

// replaySharded replays sim.RunSharded on one goroutine: partition, then
// per component the sub-network and a replayed run with the shard's seed,
// folded in ascending component order.
func replaySharded(net *netmodel.Network, seed uint64, gops int, tr *tracer, op *span) (*opResult, error) {
	sp := tr.begin(layerPartition, op)
	shards, err := net.Partition()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := &opResult{users: net.K(), minUser: math.Inf(1), maxUser: math.Inf(-1)}
	sum := 0.0
	for c := range shards {
		sp := tr.begin(layerSubnetwork, op)
		sub, err := net.Subnetwork(&shards[c])
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", c, err)
		}
		sh := tr.begin(layerShard, op)
		res, err := replayRun(sub, sim.ShardSeed(seed, c), gops, false, tr, sh)
		tr.end(sh)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", c, err)
		}
		shardSum := 0.0
		for _, v := range res.perUser {
			shardSum += v
			out.minUser = math.Min(out.minUser, v)
			out.maxUser = math.Max(out.maxUser, v)
		}
		sum += shardSum
		out.slots, out.gops = res.slots, res.gops
	}
	out.mean = sum / float64(out.users)
	return out, nil
}
