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
	// Workers caps the number of concurrent simulation runs; 0 (or any
	// non-positive value) uses runtime.GOMAXPROCS(0). Every run derives all
	// randomness from its own seed, so results are bitwise-identical for
	// any worker count.
	//
	// Deprecated: set Parallel.Workers instead. This field is consulted
	// only when Parallel.Workers is exactly zero (unset), so existing
	// callers keep working; any nonzero Parallel.Workers — including
	// negative values meaning "use every CPU" — takes precedence.
	Workers int
	// Parallel bundles the parallel-execution knobs shared with
	// sim.Options: Workers caps concurrent runs (same contract as the
	// deprecated Workers field, which it supersedes) and Shards is
	// forwarded to sharded simulations.
	Parallel par.Parallelism
	// Config is the scenario configuration; zero value means the paper's
	// defaults.
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

func (p Params) validate() error {
	if p.Runs < 1 {
		return fmt.Errorf("%w: runs=%d", ErrBadParams, p.Runs)
	}
	if p.GOPs < 1 {
		return fmt.Errorf("%w: GOPs=%d", ErrBadParams, p.GOPs)
	}
	return nil
}

// normalize validates p and substitutes the paper's default configuration
// when Config was left zero.
func (p Params) normalize() (Params, error) {
	if err := p.validate(); err != nil {
		return p, err
	}
	if p.Config.M == 0 {
		p.Config = netmodel.DefaultConfig()
	}
	return p, nil
}

// schemes lists the three compared schemes in the paper's legend order.
func schemes() []sim.Scheme {
	return []sim.Scheme{sim.Proposed, sim.Heuristic1, sim.Heuristic2}
}

// replicate runs one (network, scheme) point across p.Runs seeds over the
// worker pool and summarizes the mean PSNR, and the bound PSNR when tracked.
func replicate(p Params, net *netmodel.Network, scheme sim.Scheme, trackBound bool) (mean, bound stats.Summary, err error) {
	track := trackBound && scheme == sim.Proposed
	psnrs := make([]float64, p.Runs)
	bounds := make([]float64, p.Runs)
	err = runGrid(p.Runs, p.workers(), func(r int) error {
		res, err := sim.Run(net, sim.Options{
			Seed:       p.BaseSeed + uint64(r),
			GOPs:       p.GOPs,
			Scheme:     scheme,
			TrackBound: track,
		})
		if err != nil {
			return fmt.Errorf("scheme=%v run %d: %w", scheme, r, err)
		}
		psnrs[r] = res.MeanPSNR
		if track {
			bounds[r] = res.BoundPSNR
		}
		return nil
	})
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	mean, err = mergeSummary(psnrs)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	if track {
		bound, err = mergeSummary(bounds)
		if err != nil {
			return stats.Summary{}, stats.Summary{}, err
		}
	}
	return mean, bound, nil
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
	fig := stats.NewFigure(title, xLabel, "Y-PSNR (dB)")
	var boundSeries *stats.Series
	if trackBound {
		boundSeries = stats.NewSeries("Upper bound")
		fig.Add(boundSeries)
	}
	schs := schemes()
	curves := make(map[sim.Scheme]*stats.Series)
	for _, sch := range schs {
		curves[sch] = stats.NewSeries(sch.String())
		fig.Add(curves[sch])
	}
	nets := make([]*netmodel.Network, len(xs))
	for i, x := range xs {
		if nets[i], err = build(p, x); err != nil {
			return nil, fmt.Errorf("x=%v: %w", x, err)
		}
	}
	type cell struct{ psnr, bound float64 }
	perScheme := p.Runs
	perPoint := len(schs) * perScheme
	slots := make([]cell, len(xs)*perPoint)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		xi := i / perPoint
		si := (i % perPoint) / perScheme
		r := i % perScheme
		sch := schs[si]
		track := trackBound && sch == sim.Proposed
		res, err := sim.Run(nets[xi], sim.Options{
			Seed:       p.BaseSeed + uint64(r),
			GOPs:       p.GOPs,
			Scheme:     sch,
			TrackBound: track,
		})
		if err != nil {
			return fmt.Errorf("x=%v scheme=%v run %d: %w", xs[xi], sch, r, err)
		}
		slots[i] = cell{psnr: res.MeanPSNR, bound: res.BoundPSNR}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scratch := make([]float64, perScheme)
	for xi, x := range xs {
		for si, sch := range schs {
			base := xi*perPoint + si*perScheme
			for r := 0; r < perScheme; r++ {
				scratch[r] = slots[base+r].psnr
			}
			mean, err := mergeSummary(scratch)
			if err != nil {
				return nil, err
			}
			curves[sch].Append(x, mean)
			if trackBound && sch == sim.Proposed {
				for r := 0; r < perScheme; r++ {
					scratch[r] = slots[base+r].bound
				}
				bound, err := mergeSummary(scratch)
				if err != nil {
					return nil, err
				}
				boundSeries.Append(x, bound)
			}
		}
	}
	return fig, nil
}
