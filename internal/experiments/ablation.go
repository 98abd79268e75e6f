package experiments

import (
	"femtocr/internal/netmodel"
	"femtocr/internal/sensing"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// Ablation experiments for the design choices called out in DESIGN.md.
// These go beyond the paper's figures: each isolates one component of the
// system and quantifies its contribution under the paper's workload.

// paperSingle builds the paper's single-FBS cell at every sweep point: the
// sweeps whose x is a run option.
func paperSingle(cfg netmodel.Config, _ float64) (*netmodel.Network, error) {
	return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
}

// AblationBelief compares the paper's per-slot stationary fusion prior with
// the Bayesian occupancy filter (internal/belief) across channel-mixing
// speeds. The x-axis scales both Markov transition probabilities by the
// given factor while keeping utilization fixed at the paper's eta, so x = 1
// is the paper's fast-mixing channel and smaller x means slower primary
// traffic where history is informative.
func AblationBelief(p Params) (*stats.Figure, error) {
	return sweep(p, sweepSpec{
		title:  "Ablation — fusion prior: stationary vs Bayesian filter",
		xLabel: "Markov mixing-speed factor",
		yLabel: psnrLabel,
		xs:     []float64{0.125, 0.25, 0.5, 1.0},
		network: func(cfg netmodel.Config, factor float64) (*netmodel.Network, error) {
			cfg.P01 *= factor
			cfg.P10 *= factor
			return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		},
		variants: []sim.Options{{Scheme: sim.Proposed, Prior: sim.StationaryPrior}, {Scheme: sim.Proposed, Prior: sim.BeliefPrior}},
		curves: []curve{
			{"Stationary prior (paper)", 0, meanPSNR},
			{"Belief filter", 1, meanPSNR},
		},
	})
}

// AblationSensorPolicy compares the user-sensor assignment policies of
// internal/sensing on the single-FBS workload.
func AblationSensorPolicy(p Params) (*stats.Figure, error) {
	return sweep(p, sweepSpec{
		title:  "Ablation — sensor-to-channel assignment policy",
		xLabel: "Policy (1=round-robin, 2=random, 3=stratified)",
		yLabel: psnrLabel,
		xs: []float64{
			float64(sensing.RoundRobin), float64(sensing.RandomAssign), float64(sensing.Stratified),
		},
		network:  paperSingle,
		variants: []sim.Options{{Scheme: sim.Proposed}},
		at:       func(o *sim.Options, x float64) { o.SensorPolicy = sensing.AssignmentPolicy(x) },
		curves:   []curve{{"Proposed", 0, meanPSNR}},
	})
}
