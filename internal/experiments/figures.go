package experiments

import (
	"fmt"
	"slices"
	"strings"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// Fig3 reproduces Fig. 3: received video quality of the three CR users in
// the single-FBS scenario (Bus, Mobile, Harbor), one bar group per user and
// one curve per scheme. The x-axis is the user index (1..3).
func Fig3(p Params) (*stats.Figure, error) {
	return perUserFigure(p, "Fig. 3 — Single FBS: per-user video quality", netmodel.PaperSingleSpec())
}

// Fig5 reports the per-user video quality of the paper's §V-B interfering
// deployment (the Fig. 5 path topology: three FBSs sharing the licensed
// band, three users each) — the multi-cell analogue of Fig. 3. The x-axis
// is the user index (1..9).
func Fig5(p Params) (*stats.Figure, error) {
	return perUserFigure(p, "Fig. 5 — Interfering FBSs: per-user video quality", netmodel.PaperInterferingSpec())
}

// perUserFigure runs every (scheme, run) cell of a per-user quality figure
// over the worker pool and summarizes each user's PSNR per scheme.
func perUserFigure(p Params, title string, spec netmodel.TopologySpec) (*stats.Figure, error) {
	p, net, err := setup(p, spec)
	if err != nil {
		return nil, err
	}
	schs := schemes()
	sums, err := runGrid(p, len(schs), net.K(), func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, Scheme: schs[pt]})
		if err != nil {
			return fmt.Errorf("scheme=%v: %w", schs[pt], err)
		}
		copy(out, res.PerUserPSNR)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure(title, "User index", "Y-PSNR (dB)")
	for si, sch := range schs {
		series := stats.NewSeries(sch.String())
		for j, sum := range sums[si] {
			series.Append(float64(j+1), sum)
		}
		fig.Add(series)
	}
	return fig, nil
}

// The Fig. 4(a) trace length (the paper shows ~800 iterations) and the
// stride that subsamples its rendering.
const (
	fig4aIterations = 600
	fig4aStride     = 25
)

// Fig4a reproduces Fig. 4(a): convergence of the two dual variables
// lambda_0 (common channel) and lambda_1 (FBS band) over fig4aIterations
// subgradient iterations of the distributed algorithm, on the first slot
// of the single-FBS scenario. The figure holds every fig4aStride-th
// iteration and the last.
func Fig4a(p Params) (*stats.Figure, error) {
	p, net, err := setup(p, netmodel.PaperSingleSpec())
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(net, sim.Options{Seed: p.BaseSeed, GOPs: 1, DualTrace: fig4aIterations})
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Fig. 4(a) — Convergence of the dual variables", "Iteration", "Dual variable value")
	l0 := stats.NewSeries("lambda_0")
	l1 := stats.NewSeries("lambda_1")
	for i, row := range res.DualTrace {
		if i%fig4aStride != 0 && i != len(res.DualTrace)-1 {
			continue
		}
		l0.Append(float64(i), stats.Summary{N: 1, Mean: row[0]})
		l1.Append(float64(i), stats.Summary{N: 1, Mean: row[1]})
	}
	fig.Add(l0)
	fig.Add(l1)
	return fig, nil
}

// Fig4b reproduces Fig. 4(b): single-FBS average quality versus the number
// of licensed channels M = 4..12 step 2.
func Fig4b(p Params) (*stats.Figure, error) {
	return sweep(p, compared(sweepSpec{
		title:  "Fig. 4(b) — Video quality vs number of channels",
		xLabel: "Number of channels (M)",
		xs:     []float64{4, 6, 8, 10, 12},
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			cfg.M = int(x)
			return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		},
	}, false))
}

// Fig4c reproduces Fig. 4(c): single-FBS average quality versus channel
// utilization eta = 0.3..0.7, holding P10 fixed.
func Fig4c(p Params) (*stats.Figure, error) {
	return sweep(p, compared(sweepSpec{
		title:  "Fig. 4(c) — Video quality vs channel utilization",
		xLabel: "Channel utilization (eta)",
		xs:     []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			cfg, err := cfg.WithUtilization(x)
			if err != nil {
				return nil, err
			}
			return netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
		},
	}, false))
}

// Fig6a reproduces Fig. 6(a): interfering-FBS average quality versus
// channel utilization, including the eq. (23) upper bound.
func Fig6a(p Params) (*stats.Figure, error) {
	return sweep(p, compared(sweepSpec{
		title:  "Fig. 6(a) — Interfering FBSs: video quality vs channel utilization",
		xLabel: "Channel utilization (eta)",
		xs:     []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			cfg, err := cfg.WithUtilization(x)
			if err != nil {
				return nil, err
			}
			return netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec())
		},
	}, true))
}

// SensingErrorPairs are the five {epsilon, delta} operating points of
// Fig. 6(b).
var SensingErrorPairs = [][2]float64{
	{0.2, 0.48}, {0.24, 0.38}, {0.3, 0.3}, {0.38, 0.24}, {0.48, 0.2},
}

// Fig6b reproduces Fig. 6(b): interfering-FBS average quality across the
// five sensing-error operating points, plotted against the false-alarm
// probability epsilon.
func Fig6b(p Params) (*stats.Figure, error) {
	xs := make([]float64, len(SensingErrorPairs))
	deltaOf := make(map[float64]float64, len(SensingErrorPairs))
	for i, pair := range SensingErrorPairs {
		xs[i] = pair[0]
		deltaOf[pair[0]] = pair[1]
	}
	return sweep(p, compared(sweepSpec{
		title:  "Fig. 6(b) — Interfering FBSs: video quality vs sensing error",
		xLabel: "Probability of false alarm (epsilon)",
		xs:     xs,
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			cfg.Eps = x
			cfg.Delta = deltaOf[x]
			return netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec())
		},
	}, true))
}

// Fig6c reproduces Fig. 6(c): interfering-FBS average quality versus the
// common-channel bandwidth B0 = 0.1..0.5 Mbps with B1 fixed at 0.3 Mbps.
func Fig6c(p Params) (*stats.Figure, error) {
	return sweep(p, compared(sweepSpec{
		title:  "Fig. 6(c) — Interfering FBSs: video quality vs common-channel bandwidth",
		xLabel: "Bandwidth of the common channel (Mbps)",
		xs:     []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			cfg.B0 = x
			cfg.B1 = 0.3
			return netmodel.NewNetwork(cfg, netmodel.PaperInterferingSpec())
		},
	}, true))
}

// Entry is one registered figure: ID is the id that selects it (see Run),
// Paper marks the figures of the paper's evaluation section, and Run
// computes the figure at a given scale.
type Entry struct {
	ID    string
	Paper bool
	Run   func(Params) (*stats.Figure, error)
}

// name is the entry's output name, the file stem under results/: fig3 for
// the paper's Fig. 3, the ID itself for every other entry.
func (e Entry) name() string {
	if e.Paper {
		return "fig" + e.ID
	}
	return e.ID
}

// Registry lists every figure in presentation order: the paper's figures,
// by their numbers, first, then the ablations and extensions, and last the
// Theorem 2 / eq. (23) topology study.
func Registry() []Entry {
	return []Entry{
		{"3", true, Fig3},
		{"4a", true, Fig4a},
		{"4b", true, Fig4b},
		{"4c", true, Fig4c},
		{"5", true, Fig5},
		{"6a", true, Fig6a},
		{"6b", true, Fig6b},
		{"6c", true, Fig6c},
		{"ablation-belief", false, AblationBelief},
		{"ablation-sensor", false, AblationSensorPolicy},
		{"gamma", false, GammaTradeoff},
		{"engines", false, EngineComparison},
		{"deadline", false, DeadlineSweep},
		{"capacity", false, UserCapacity},
		{"frontier", false, SchemeFrontier},
		{"scalability", false, Scalability},
		{"topology", false, Topology},
	}
}

// selects is the figure-id grammar: "all" names the paper's figures,
// "everything" the whole registry, and any other id the one entry of that
// ID, ignoring case.
func selects(id string, e Entry) bool {
	id = strings.ToLower(id)
	return id == "everything" || (id == "all" && e.Paper) || id == e.ID
}

// Run computes, at the given scale and in registry order, every figure some
// id selects, naming each by its output name (fig3 for the paper's Fig. 3).
// An id that selects nothing, or no id at all, is an ErrBadParams error.
func Run(p Params, ids ...string) ([]Named, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no figure id", ErrBadParams)
	}
	reg := Registry()
	for _, id := range ids {
		if !slices.ContainsFunc(reg, func(e Entry) bool { return selects(id, e) }) {
			return nil, fmt.Errorf("%w: unknown figure %q", ErrBadParams, id)
		}
	}
	var out []Named
	for _, e := range reg {
		if !slices.ContainsFunc(ids, func(id string) bool { return selects(id, e) }) {
			continue
		}
		fig, err := e.Run(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name(), err)
		}
		out = append(out, Named{ID: e.name(), Figure: fig})
	}
	return out, nil
}

// Named pairs a figure with its output name.
type Named struct {
	ID     string
	Figure *stats.Figure
}
