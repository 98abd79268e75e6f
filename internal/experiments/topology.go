package experiments

import (
	"fmt"
	"math"

	"femtocr/internal/core"
	"femtocr/internal/igraph"
	"femtocr/internal/par"
	"femtocr/internal/rng"
)

// TopologyPoint measures the greedy channel allocation against the
// exhaustive optimum on one interference-graph family.
type TopologyPoint struct {
	Name string
	// Dmax is the maximum vertex degree; Theorem 2 guarantees
	// greedy/optimal >= 1/(1+Dmax).
	Dmax int
	// GuaranteedRatio is Theorem 2's worst-case floor 1/(1+Dmax).
	GuaranteedRatio float64
	// WorstRatio is the smallest measured greedy/optimal ratio.
	WorstRatio float64
	// MeanRatio averages greedy/optimal over the sampled instances.
	MeanRatio float64
	// MeanBoundRatio averages optimal/upper-bound: 1 means the eq. (23)
	// bound is tight.
	MeanBoundRatio float64
}

// TopologyStudy samples random per-slot problems on several canonical
// interference-graph families and measures how far the greedy allocation
// of Table III actually sits from the exhaustively-enumerated optimum,
// compared with Theorem 2's 1/(1+Dmax) floor and the eq. (23) bound.
//
// The study runs at the solver level (no slot simulation): each instance
// draws user qualities, link reliabilities, and channel posteriors at the
// paper's scales, with three users per femtocell and topologyChannels
// accessed channels. Trials fan out over `workers` goroutines
// (non-positive: one per CPU); each trial's stream is split from the
// family stream before dispatch, so results are identical for any worker
// count.
func TopologyStudy(seed uint64, instances, workers int) ([]TopologyPoint, error) {
	if instances < 1 {
		return nil, fmt.Errorf("%w: instances=%d", ErrBadParams, instances)
	}
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

	solver := &core.EquilibriumSolver{}
	greedy := core.NewGreedyAllocator(solver)
	root := rng.New(seed)

	var out []TopologyPoint
	for _, fam := range families {
		n := fam.graph.N()
		pt := TopologyPoint{
			Name:            fam.name,
			Dmax:            fam.graph.MaxDegree(),
			GuaranteedRatio: 1 / (1 + float64(fam.graph.MaxDegree())),
			WorstRatio:      math.Inf(1),
		}
		stream := root.Split("topology/" + fam.name)
		// Split every trial's stream before fanning out: SplitIndex is a
		// pure function of the parent seeds, but the parent stream itself
		// is not concurrency-safe.
		streams := make([]*rng.Stream, instances)
		for trial := range streams {
			streams[trial] = stream.SplitIndex("t", trial)
		}
		type cell struct{ ratio, boundRatio float64 }
		slots := make([]cell, instances)
		err := par.RunGrid(instances, workers, func(trial int) error {
			problem, err := randomChannelProblem(streams[trial], n)
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
			ratio := res.Value / opt
			if ratio > 1 {
				ratio = 1 // solver tolerance can put greedy a hair above
			}
			slots[trial] = cell{ratio: ratio, boundRatio: opt / res.UpperBound}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range slots {
			pt.MeanRatio += c.ratio
			if c.ratio < pt.WorstRatio {
				pt.WorstRatio = c.ratio
			}
			pt.MeanBoundRatio += c.boundRatio
		}
		pt.MeanRatio /= float64(instances)
		pt.MeanBoundRatio /= float64(instances)
		out = append(out, pt)
	}
	return out, nil
}

// topologyChannels is the accessed-channel count of every TopologyStudy
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

// String renders one topology row.
func (p TopologyPoint) String() string {
	return fmt.Sprintf("%-20s Dmax=%d floor=%.3f worst=%.4f mean=%.4f bound-tightness=%.4f",
		p.Name, p.Dmax, p.GuaranteedRatio, p.WorstRatio, p.MeanRatio, p.MeanBoundRatio)
}
