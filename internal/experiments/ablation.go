package experiments

import (
	"fmt"

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
		if nets[i], err = netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec()); err != nil {
			return nil, err
		}
	}
	// Point 2*fi runs factor fi with the stationary prior, 2*fi+1 with the
	// belief filter.
	priors := [2]sim.Prior{sim.StationaryPrior, sim.BeliefPrior}
	g, err := runGrid(p, 2*len(factors), 1, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(nets[pt/2], sim.Options{Seed: seed, GOPs: p.GOPs, Prior: priors[pt%2]})
		if err != nil {
			return fmt.Errorf("factor=%v beliefs=%v: %w", factors[pt/2], pt%2 == 1, err)
		}
		out[0] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi, factor := range factors {
		stationary.Append(factor, g.sum[2*fi][0])
		filtered.Append(factor, g.sum[2*fi+1][0])
	}
	return fig, nil
}

// AblationSensorPolicy compares the user-sensor assignment policies of
// internal/sensing on the single-FBS workload.
func AblationSensorPolicy(p Params) (*stats.Figure, error) {
	p, net, err := setup(p, netmodel.PaperSingleSpec())
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
	g, err := runGrid(p, len(policies), 1, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, SensorPolicy: policies[pt]})
		if err != nil {
			return fmt.Errorf("policy=%v: %w", policies[pt], err)
		}
		out[0] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		series.Append(float64(pol), g.sum[pi][0])
	}
	return fig, nil
}
