// Package experiments regenerates every figure of the paper's evaluation
// section (§V). Each driver sweeps the figure's parameter, runs the three
// schemes (plus the eq. (23) upper bound where the paper plots it) over
// independent replications, and returns the mean Y-PSNR series with 95%
// confidence intervals — the same rows the paper's figures report.
package experiments

import (
	"errors"
	"fmt"

	"femtocr/internal/netmodel"
	"femtocr/internal/par"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// ErrBadParams is returned for invalid experiment parameters.
var ErrBadParams = errors.New("experiments: invalid parameters")

// Params controls an experiment's scale.
type Params struct {
	// Runs is the number of independent replications per point (the paper
	// uses 10).
	Runs int
	// GOPs simulated per run.
	GOPs int
	// BaseSeed: replication r of point p uses seed BaseSeed + r.
	BaseSeed uint64
	// Parallel bundles the parallel-execution knobs shared with
	// sim.Options: Workers caps the concurrent simulation runs (0: one per
	// CPU). Every run derives all randomness from its own seed, so results
	// are bitwise-identical for any worker count.
	Parallel par.Parallelism
	// Config is the scenario configuration; the zero Config means the
	// paper's defaults, and any other is used as given.
	Config netmodel.Config
}

// PaperParams returns the evaluation scale of §V: 10 runs, 20 GOPs each,
// default configuration.
func PaperParams() Params {
	return Params{Runs: 10, GOPs: 20, BaseSeed: 1000, Config: netmodel.DefaultConfig()}
}

// QuickParams returns a reduced scale for smoke tests and CI.
func QuickParams() Params {
	return Params{Runs: 2, GOPs: 3, BaseSeed: 1000, Config: netmodel.DefaultConfig()}
}

// normalize validates p and substitutes the paper's default configuration
// for the zero Config. Any other Config is kept as given, so NewNetwork
// rejects an incomplete one.
func (p Params) normalize() (Params, error) {
	if p.Runs < 1 {
		return p, fmt.Errorf("%w: runs=%d", ErrBadParams, p.Runs)
	}
	if p.GOPs < 1 {
		return p, fmt.Errorf("%w: GOPs=%d", ErrBadParams, p.GOPs)
	}
	if p.Config == (netmodel.Config{}) {
		p.Config = netmodel.DefaultConfig()
	}
	return p, nil
}

// setup normalizes p and builds spec's network at p.Config: the preamble of
// every driver that runs one deployment.
func setup(p Params, spec netmodel.TopologySpec) (Params, *netmodel.Network, error) {
	p, err := p.normalize()
	if err != nil {
		return p, nil, err
	}
	net, err := netmodel.NewNetwork(p.Config, spec)
	return p, net, err
}

// schemes lists the three compared schemes in the paper's legend order.
func schemes() []sim.Scheme {
	return []sim.Scheme{sim.Proposed, sim.Heuristic1, sim.Heuristic2}
}

// sweep evaluates all schemes over a parameter sweep, building one curve per
// scheme plus an optional "Upper bound" curve. The whole
// (sweep point, scheme, run) grid fans out over the worker pool at once, so
// a slow point does not serialize the rest of the sweep.
func sweep(p Params, title, xLabel string, xs []float64,
	build func(p Params, x float64) (*netmodel.Network, error), trackBound bool) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	nets := make([]*netmodel.Network, len(xs))
	for i, x := range xs {
		if nets[i], err = build(p, x); err != nil {
			return nil, fmt.Errorf("x=%v: %w", x, err)
		}
	}
	schs := schemes()
	g, err := runGrid(p, len(xs)*len(schs), 2, func(pt int, seed uint64, out []float64) error {
		xi, sch := pt/len(schs), schs[pt%len(schs)]
		res, err := sim.Run(nets[xi], sim.Options{
			Seed:       seed,
			GOPs:       p.GOPs,
			Scheme:     sch,
			TrackBound: trackBound && sch == sim.Proposed,
		})
		if err != nil {
			return fmt.Errorf("x=%v scheme=%v: %w", xs[xi], sch, err)
		}
		out[0], out[1] = res.MeanPSNR, res.BoundPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure(title, xLabel, "Y-PSNR (dB)")
	if trackBound {
		bound := stats.NewSeries("Upper bound")
		for xi, x := range xs {
			bound.Append(x, g.sum[xi*len(schs)][1]) // scheme 0 is Proposed
		}
		fig.Add(bound)
	}
	for si, sch := range schs {
		curve := stats.NewSeries(sch.String())
		for xi, x := range xs {
			curve.Append(x, g.sum[xi*len(schs)+si][0])
		}
		fig.Add(curve)
	}
	return fig, nil
}
