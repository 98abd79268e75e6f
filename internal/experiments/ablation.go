package experiments

import (
	"fmt"
	"time"

	"femtocr/internal/netmodel"
	"femtocr/internal/sensing"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// Ablation experiments for the design choices called out in DESIGN.md.
// These go beyond the paper's figures: each isolates one component of the
// system and quantifies its contribution under the paper's workload.

// AblationBelief compares the paper's per-slot stationary fusion prior with
// the Bayesian occupancy filter (internal/belief) across channel-mixing
// speeds. The x-axis scales both Markov transition probabilities by the
// given factor while keeping utilization fixed at the paper's eta, so x = 1
// is the paper's fast-mixing channel and smaller x means slower primary
// traffic where history is informative.
func AblationBelief(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Ablation — fusion prior: stationary vs Bayesian filter",
		"Markov mixing-speed factor", "Y-PSNR (dB)")
	stationary := stats.NewSeries("Stationary prior (paper)")
	filtered := stats.NewSeries("Belief filter")
	fig.Add(stationary)
	fig.Add(filtered)

	factors := []float64{0.125, 0.25, 0.5, 1.0}
	nets := make([]*netmodel.Network, len(factors))
	for i, factor := range factors {
		cfg := p.Config
		cfg.P01 *= factor
		cfg.P10 *= factor
		var err error
		if nets[i], err = netmodel.PaperSingleFBS(cfg); err != nil {
			return nil, err
		}
	}
	perFactor := 2 * p.Runs // stationary runs, then belief-filter runs
	slots := make([]float64, len(factors)*perFactor)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		fi := i / perFactor
		track := (i%perFactor)/p.Runs == 1
		r := i % p.Runs
		res, err := sim.Run(nets[fi], sim.Options{
			Seed:         p.BaseSeed + uint64(r),
			GOPs:         p.GOPs,
			TrackBeliefs: track,
		})
		if err != nil {
			return fmt.Errorf("factor=%v beliefs=%v run %d: %w", factors[fi], track, r, err)
		}
		slots[i] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi, factor := range factors {
		base := fi * perFactor
		s, err := mergeSummary(slots[base : base+p.Runs])
		if err != nil {
			return nil, err
		}
		stationary.Append(factor, s)
		if s, err = mergeSummary(slots[base+p.Runs : base+perFactor]); err != nil {
			return nil, err
		}
		filtered.Append(factor, s)
	}
	return fig, nil
}

// AblationSensorPolicy compares the user-sensor assignment policies of
// internal/sensing on the single-FBS workload.
func AblationSensorPolicy(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	net, err := netmodel.PaperSingleFBS(p.Config)
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Ablation — sensor-to-channel assignment policy",
		"Policy (1=round-robin, 2=random, 3=stratified)", "Y-PSNR (dB)")
	series := stats.NewSeries("Proposed")
	fig.Add(series)
	policies := []sensing.AssignmentPolicy{
		sensing.RoundRobin, sensing.RandomAssign, sensing.Stratified,
	}
	slots := make([]float64, len(policies)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		pol := policies[i/p.Runs]
		r := i % p.Runs
		res, err := sim.Run(net, sim.Options{
			Seed:         p.BaseSeed + uint64(r),
			GOPs:         p.GOPs,
			SensorPolicy: pol,
		})
		if err != nil {
			return fmt.Errorf("policy=%v run %d: %w", pol, r, err)
		}
		slots[i] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		s, err := mergeSummary(slots[pi*p.Runs : (pi+1)*p.Runs])
		if err != nil {
			return nil, err
		}
		series.Append(float64(pol), s)
	}
	return fig, nil
}

// SolverComparison quantifies the quality-vs-cost trade between the
// distributed subgradient solver (the paper's Tables I/II) and the
// price-equilibrium solver used as the fast default.
type SolverComparison struct {
	EquilibriumPSNR    stats.Summary
	DualPSNR           stats.Summary
	EquilibriumElapsed time.Duration
	DualElapsed        time.Duration
}

// AblationSolver runs the single-FBS workload under both solvers.
func AblationSolver(p Params) (*SolverComparison, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	net, err := netmodel.PaperSingleFBS(p.Config)
	if err != nil {
		return nil, err
	}
	out := &SolverComparison{}
	for _, useDual := range []bool{false, true} {
		vals := make([]float64, p.Runs)
		start := time.Now()
		err = runGrid(p.Runs, p.workers(), func(r int) error {
			res, err := sim.Run(net, sim.Options{
				Seed:          p.BaseSeed + uint64(r),
				GOPs:          p.GOPs,
				UseDualSolver: useDual,
			})
			if err != nil {
				return fmt.Errorf("dual=%v run %d: %w", useDual, r, err)
			}
			vals[r] = res.MeanPSNR
			return nil
		})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		s, err := mergeSummary(vals)
		if err != nil {
			return nil, err
		}
		if useDual {
			out.DualPSNR = s
			out.DualElapsed = elapsed
		} else {
			out.EquilibriumPSNR = s
			out.EquilibriumElapsed = elapsed
		}
	}
	return out, nil
}

// String renders the comparison.
func (s *SolverComparison) String() string {
	return fmt.Sprintf(
		"solver comparison over identical seeds:\n"+
			"  price equilibrium: %.3f dB ±%.3f in %v\n"+
			"  dual subgradient:  %.3f dB ±%.3f in %v\n",
		s.EquilibriumPSNR.Mean, s.EquilibriumPSNR.HalfWidth, s.EquilibriumElapsed,
		s.DualPSNR.Mean, s.DualPSNR.HalfWidth, s.DualElapsed)
}
