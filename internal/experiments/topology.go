package experiments

import (
	"fmt"
	"math"
	"strings"

	"femtocr/internal/core"
	"femtocr/internal/igraph"
	"femtocr/internal/par"
	"femtocr/internal/rng"
	"femtocr/internal/stats"
)

// Topology samples random per-slot problems on five canonical
// interference-graph families (x = 1..5) and measures, in percent, how far
// the greedy allocation of Table III sits from the exhaustively-enumerated
// optimum and how tight the eq. (23) bound is, against Theorem 2's
// 1/(1+Dmax) floor. The raw ratios compare objectives, which Q(∅), the
// objective with no channel allocated, dominates; the gain ratios compare
// the gains above Q(∅), taken from one solve at G = 0, and read 100% where
// the optimum gains nothing.
//
// The study runs at the solver level (no slot simulation) and reads only
// p.Runs, p.BaseSeed and p.Parallel, so p.GOPs and p.Config go unchecked:
// each family draws 2·p.Runs instances from p.BaseSeed, each with user
// qualities, link reliabilities and channel posteriors at the paper's
// scales, three users per femtocell and topologyChannels accessed
// channels. Trials fan out over p.Parallel's workers; each trial's stream
// is split from the family stream before dispatch, so the figure is
// identical for any worker count.
func Topology(p Params) (*stats.Figure, error) {
	if p.Runs < 1 {
		return nil, fmt.Errorf("%w: runs=%d", ErrBadParams, p.Runs)
	}
	instances := 2 * p.Runs
	star := igraph.New(4) // center 0, leaves 1..3: Dmax = 3
	for leaf := 1; leaf < 4; leaf++ {
		if err := star.AddEdge(0, leaf); err != nil {
			return nil, err
		}
	}
	cycle := igraph.Path(4)
	if err := cycle.AddEdge(0, 3); err != nil {
		return nil, err
	}
	families := []struct {
		name  string
		graph *igraph.Graph
	}{
		{"isolated (Table II)", igraph.New(3)},
		{"path (Fig. 5)", igraph.Path(3)},
		{"cycle-4", cycle},
		{"star-4", star},
		{"complete-4", igraph.Complete(4)},
	}
	labels := make([]string, len(families))
	for i, fam := range families {
		labels[i] = fmt.Sprintf("%d=%s", i+1, fam.name)
	}
	fig := stats.NewFigure("Theorem 2 / eq. (23) across interference-graph families (gain: above Q(∅))",
		"Family ("+strings.Join(labels, " ")+")", "Ratio (%)")
	curves := make([]*stats.Series, 7)
	for c, name := range []string{"floor 1/(1+Dmax)", "greedy/opt worst", "greedy/opt mean", "opt/bound mean",
		"gain greedy/opt worst", "gain greedy/opt mean", "gain opt/bound mean"} {
		curves[c] = stats.NewSeries(name)
		fig.Add(curves[c])
	}

	solver := &core.EquilibriumSolver{}
	greedy := core.NewGreedyAllocator(solver)
	root := rng.New(p.BaseSeed)
	for fi, fam := range families {
		stream := root.Split("topology/" + fam.name)
		// Split every trial's stream before fanning out: SplitIndex is a
		// pure function of the parent seeds, but the parent stream itself
		// is not concurrency-safe.
		streams := make([]*rng.Stream, instances)
		for trial := range streams {
			streams[trial] = stream.SplitIndex("t", trial)
		}
		// Per trial: greedy/optimum and optimum/bound, of the objectives and
		// of their gains above Q(∅).
		cells := make([][4]float64, instances)
		err := par.RunGrid(instances, p.Parallel.EffectiveWorkers(), func(trial int) error {
			problem, err := randomChannelProblem(streams[trial], fam.graph.N())
			if err != nil {
				return err
			}
			problem.Graph = fam.graph
			res, err := greedy.Allocate(problem)
			if err != nil {
				return fmt.Errorf("family=%q trial %d: %w", fam.name, trial, err)
			}
			opt, err := core.ExhaustiveChannelOptimum(problem, solver)
			if err != nil {
				return fmt.Errorf("family=%q trial %d: %w", fam.name, trial, err)
			}
			empty := core.NewAllocation(problem.Base.K())
			if err := solver.SolveInto(problem.Base, empty); err != nil { // Base.G is all zero
				return fmt.Errorf("family=%q trial %d: %w", fam.name, trial, err)
			}
			q0 := empty.Objective(problem.Base)
			cells[trial] = [4]float64{
				min(res.Value/opt, 1), // solver tolerance can put greedy a hair above
				opt / res.UpperBound,
				gainRatio(res.Value, opt, q0),
				gainRatio(opt, res.UpperBound, q0),
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sum [4]float64
		worst := [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		for _, c := range cells {
			for m, v := range c {
				sum[m] += v
				worst[m] = min(worst[m], v)
			}
		}
		n, x := float64(instances), float64(fi+1)
		floor := 1 / (1 + float64(fam.graph.MaxDegree()))
		for c, v := range []float64{floor, worst[0], sum[0] / n, sum[1] / n, worst[2], sum[2] / n, sum[3] / n} {
			curves[c].Append(x, stats.Summary{N: instances, Mean: 100 * v})
		}
	}
	return fig, nil
}

// gainRatio is the share of b's gain above q0 that a reaches,
// (a − q0)/(b − q0), and 1 where b gains nothing.
func gainRatio(a, b, q0 float64) float64 {
	if b <= q0 {
		return 1
	}
	return (a - q0) / (b - q0)
}

// topologyChannels is the accessed-channel count of every Topology
// instance. The exhaustive optimum costs M(G)^topologyChannels solver
// calls, where M(G) counts the graph's maximal independent sets, so it
// stays small.
const topologyChannels = 3

// randomChannelProblem draws a per-slot problem at the paper's scales:
// three users per FBS, qualities near the base layers, topologyChannels
// channels with posteriors in (0.5, 1].
func randomChannelProblem(s *rng.Stream, n int) (*core.ChannelProblem, error) {
	k := 3 * n
	in := &core.Instance{
		W:   make([]float64, k),
		R0:  make([]float64, k),
		R1:  make([]float64, k),
		PS0: make([]float64, k),
		PS1: make([]float64, k),
		FBS: make([]int, k),
		G:   make([]float64, n),
	}
	for j := 0; j < k; j++ {
		in.W[j] = 26 + 6*s.Float64()
		in.R0[j] = 0.3 + 0.3*s.Float64()
		in.R1[j] = 0.3 + 0.3*s.Float64()
		in.PS0[j] = 0.4 + 0.5*s.Float64()
		in.PS1[j] = 0.7 + 0.3*s.Float64()
		in.FBS[j] = j/3 + 1
	}
	chs := make([]int, topologyChannels)
	pas := make([]float64, topologyChannels)
	for c := range chs {
		chs[c] = c + 1
		pas[c] = 0.5 + 0.5*s.Float64()
	}
	p := &core.ChannelProblem{Base: in, Channels: chs, Posteriors: pas}
	return p, nil
}
