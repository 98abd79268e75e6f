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

// psnrLabel is the y-axis of every figure that plots video quality alone.
const psnrLabel = "Y-PSNR (dB)"

// A sweepSpec declares an x-sweep figure: its x values, the network each x
// runs on (built on the normalized Params' Config), the variants every
// point runs (sim.Options; the sweep sets Seed and GOPs, and at, when set,
// writes x into them; each names its Scheme, or at does, so that a failed
// run's error says which scheme ran), and its curves.
type sweepSpec struct {
	title, xLabel, yLabel string
	xs                    []float64
	network               func(cfg netmodel.Config, x float64) (*netmodel.Network, error)
	variants              []sim.Options
	at                    func(o *sim.Options, x float64)
	curves                []curve
}

// A curve plots one metric of one variant across the sweep.
type curve struct {
	name    string
	variant int
	metric  func(*sim.Result) float64
}

func meanPSNR(r *sim.Result) float64  { return r.MeanPSNR }
func boundPSNR(r *sim.Result) float64 { return r.BoundPSNR }

// compared declares the paper's comparison: the three schemes, each
// plotted by its mean quality, after Proposed's tracked bound as "Upper
// bound" when bound is set.
func compared(s sweepSpec, bound bool) sweepSpec {
	s.yLabel = psnrLabel
	if bound {
		s.curves = append(s.curves, curve{"Upper bound", 0, boundPSNR})
	}
	for v, sch := range schemes() {
		s.variants = append(s.variants, sim.Options{Scheme: sch, TrackBound: bound && sch == sim.Proposed})
		s.curves = append(s.curves, curve{sch.String(), v, meanPSNR})
	}
	return s
}

// sweep runs every (x, variant) point of s over p's replications and folds
// each curve's metric per x. The whole (x, variant, run) grid fans out
// over the worker pool at once, so a slow point does not serialize the
// rest of the sweep.
func sweep(p Params, s sweepSpec) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	nets := make([]*netmodel.Network, len(s.xs))
	for i, x := range s.xs {
		if nets[i], err = s.network(p.Config, x); err != nil {
			return nil, fmt.Errorf("x=%v: %w", x, err)
		}
	}
	nv := len(s.variants)
	sums, err := runGrid(p, len(s.xs)*nv, len(s.curves), func(pt int, seed uint64, out []float64) error {
		x, v := s.xs[pt/nv], pt%nv
		opts := s.variants[v]
		opts.Seed, opts.GOPs = seed, p.GOPs
		if s.at != nil {
			s.at(&opts, x)
		}
		res, err := sim.Run(nets[pt/nv], opts)
		if err != nil {
			return fmt.Errorf("x=%v scheme=%v prior=%v: %w", x, opts.Scheme, opts.Prior, err)
		}
		for c, cv := range s.curves {
			if cv.variant == v {
				out[c] = cv.metric(res)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure(s.title, s.xLabel, s.yLabel)
	for c, cv := range s.curves {
		series := stats.NewSeries(cv.name)
		for xi, x := range s.xs {
			series.Append(x, sums[xi*nv+cv.variant][c])
		}
		fig.Add(series)
	}
	return fig, nil
}
