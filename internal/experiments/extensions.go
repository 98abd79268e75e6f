package experiments

import (
	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
	"femtocr/internal/video"
)

// Extension experiments beyond the paper's figures: the collision-budget
// trade-off (the paper fixes gamma = 0.2) and scalability in the number of
// interfering femtocells (the paper stops at N = 3).

// GammaTradeoff sweeps the collision threshold gamma and reports both the
// achieved video quality and the realized worst-channel collision rate,
// validating primary-user protection end to end: the realized rate must
// track min(gamma, rate at full access) while quality grows with gamma.
func GammaTradeoff(p Params) (*stats.Figure, error) {
	return sweep(p, sweepSpec{
		title:  "Extension — collision budget vs quality and protection",
		xLabel: "Collision threshold (gamma)",
		yLabel: "Y-PSNR (dB) / collision rate",
		xs:     []float64{0.05, 0.1, 0.2, 0.3, 0.4},
		network: func(cfg netmodel.Config, gamma float64) (*netmodel.Network, error) {
			cfg.Gamma = gamma
			return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		},
		variants: []sim.Options{{Scheme: sim.Proposed}},
		curves: []curve{
			{"Proposed Y-PSNR (dB)", 0, meanPSNR},
			{"Realized collision rate", 0, func(r *sim.Result) float64 { return r.CollisionRate }},
		},
	})
}

// Scalability grows the interfering deployment along a line (path
// interference graph, three users per femtocell) to N = 2, 3, 4 and 6 FBSs
// and plots each scheme's quality and Proposed's eq. (23) bound against N.
// The paper evaluates N = 3; this probes how the greedy algorithm and its
// bound behave as the conflict graph grows.
func Scalability(p Params) (*stats.Figure, error) {
	trio := video.PaperTrio()
	return sweep(p, compared(sweepSpec{
		title:  "Extension — interfering femtocells on a line",
		xLabel: "Femtocells on the path (N)",
		xs:     []float64{2, 3, 4, 6},
		network: func(cfg netmodel.Config, n float64) (*netmodel.Network, error) {
			groups := make([][]video.Sequence, int(n))
			for i := range groups {
				groups[i] = trio[:]
			}
			return netmodel.NewNetwork(cfg, netmodel.InterferingPathSpec(groups))
		},
	}, true))
}

// DeadlineSweep varies the delivery deadline T (slots per GOP) at a fixed
// GOP playout time. Larger T means finer-grained scheduling within the same
// wall-clock budget: more allocation decisions per GOP and more chances to
// ride good channel states, at the cost of more sensing overhead per frame
// in a real system. The paper fixes T = 10; this measures what that choice
// buys.
func DeadlineSweep(p Params) (*stats.Figure, error) {
	return sweep(p, sweepSpec{
		title:  "Extension — delivery deadline granularity",
		xLabel: "Slots per GOP deadline (T)",
		yLabel: psnrLabel,
		xs:     []float64{2, 5, 10, 20},
		network: func(cfg netmodel.Config, t float64) (*netmodel.Network, error) {
			cfg.T = int(t)
			return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		},
		variants: []sim.Options{{Scheme: sim.Proposed}},
		curves:   []curve{{"Proposed", 0, meanPSNR}},
	})
}

// UserCapacity answers the provisioning question a femtocell operator asks:
// how many video users can one femtocell CR cell carry at a target quality?
// It grows the user population of the single-FBS scenario (cycling through
// the sequence presets) and reports the mean quality at each size; the
// capacity at a target is the largest population whose mean stays above it.
// The populations are K = 1, 2, 3, 4, 6 and 8.
func UserCapacity(p Params) (*stats.Figure, error) {
	presets := video.StandardSequences()
	return sweep(p, sweepSpec{
		title:  "Extension — users per femtocell vs quality",
		xLabel: "Users (K)",
		yLabel: psnrLabel,
		xs:     []float64{1, 2, 3, 4, 6, 8},
		network: func(cfg netmodel.Config, k float64) (*netmodel.Network, error) {
			videos := make([]video.Sequence, int(k))
			for j := range videos {
				videos[j] = presets[j%len(presets)]
			}
			return netmodel.NewNetwork(cfg, netmodel.SingleSpec(videos))
		},
		variants: []sim.Options{{Scheme: sim.Proposed}},
		curves: []curve{
			{"Proposed mean", 0, meanPSNR},
			{"Proposed worst user", 0, func(r *sim.Result) float64 { return r.MinUserPSNR }},
		},
	})
}

// SchemeFrontier measures every scheduler on the single-FBS workload along
// two axes at once — mean quality and Jain fairness of the quality gains —
// tracing the fairness-efficiency frontier: proportional fairness (the
// paper), pure throughput maximization, the two paper heuristics, and
// blind TDMA. The x-axis is the scheme index in sim.Scheme order.
func SchemeFrontier(p Params) (*stats.Figure, error) {
	return sweep(p, sweepSpec{
		title:  "Extension — fairness-efficiency frontier",
		xLabel: "Scheme (1=Proposed 2=H1 3=H2 4=RoundRobin 5=MaxThroughput)",
		yLabel: "Y-PSNR (dB) / Jain index",
		xs: []float64{
			float64(sim.Proposed), float64(sim.Heuristic1), float64(sim.Heuristic2),
			float64(sim.RoundRobin), float64(sim.MaxThroughput),
		},
		network:  paperSingle,
		variants: []sim.Options{{}},
		at:       func(o *sim.Options, x float64) { o.Scheme = sim.Scheme(x) },
		curves: []curve{
			{"Mean Y-PSNR (dB)", 0, meanPSNR},
			{"Jain fairness of gains", 0, func(r *sim.Result) float64 { return r.FairnessIndex }},
		},
	})
}
