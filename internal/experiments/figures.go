package experiments

import (
	"fmt"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// Fig3 reproduces Fig. 3: received video quality of the three CR users in
// the single-FBS scenario (Bus, Mobile, Harbor), one bar group per user and
// one curve per scheme. The x-axis is the user index (1..3).
func Fig3(p Params) (*stats.Figure, error) {
	return perUserFigure(p, "Fig. 3 — Single FBS: per-user video quality", netmodel.PaperSingleFBS)
}

// Fig5 reports the per-user video quality of the paper's §V-B interfering
// deployment (the Fig. 5 path topology: three FBSs sharing the licensed
// band, three users each) — the multi-cell analogue of Fig. 3. The x-axis
// is the user index (1..9).
func Fig5(p Params) (*stats.Figure, error) {
	return perUserFigure(p, "Fig. 5 — Interfering FBSs: per-user video quality", netmodel.PaperInterfering)
}

// perUserFigure runs every (scheme, run) cell of a per-user quality figure
// over the worker pool and summarizes each user's PSNR per scheme.
func perUserFigure(p Params, title string, build func(netmodel.Config) (*netmodel.Network, error)) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	net, err := build(p.Config)
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure(title, "User index", "Y-PSNR (dB)")
	schs := schemes()
	slots := make([][]float64, len(schs)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		sch := schs[i/p.Runs]
		r := i % p.Runs
		res, err := sim.Run(net, sim.Options{
			Seed:   p.BaseSeed + uint64(r),
			GOPs:   p.GOPs,
			Scheme: sch,
		})
		if err != nil {
			return fmt.Errorf("scheme=%v run %d: %w", sch, r, err)
		}
		slots[i] = res.PerUserPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	scratch := make([]float64, p.Runs)
	for si, sch := range schs {
		series := stats.NewSeries(sch.String())
		for j := 0; j < net.K(); j++ {
			for r := 0; r < p.Runs; r++ {
				scratch[r] = slots[si*p.Runs+r][j]
			}
			s, err := mergeSummary(scratch)
			if err != nil {
				return nil, err
			}
			series.Append(float64(j+1), s)
		}
		fig.Add(series)
	}
	return fig, nil
}

// Fig4a reproduces Fig. 4(a): convergence of the two dual variables
// lambda_0 (common channel) and lambda_1 (FBS band) over the subgradient
// iterations of the distributed algorithm, on the first slot of the
// single-FBS scenario. Iterations is the trace length (the paper shows
// ~800). Stride subsamples the rendered figure; the returned trace itself
// is complete.
func Fig4a(p Params, iterations, stride int) (*stats.Figure, [][]float64, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, nil, err
	}
	if iterations < 2 {
		return nil, nil, fmt.Errorf("%w: iterations=%d", ErrBadParams, iterations)
	}
	if stride < 1 {
		stride = 1
	}
	net, err := netmodel.PaperSingleFBS(p.Config)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(net, sim.Options{
		Seed:             p.BaseSeed,
		GOPs:             1,
		CaptureDualTrace: true,
		DualIterations:   iterations,
	})
	if err != nil {
		return nil, nil, err
	}
	fig := stats.NewFigure("Fig. 4(a) — Convergence of the dual variables", "Iteration", "Dual variable value")
	l0 := stats.NewSeries("lambda_0")
	l1 := stats.NewSeries("lambda_1")
	for i, row := range res.DualTrace {
		if i%stride != 0 && i != len(res.DualTrace)-1 {
			continue
		}
		l0.Append(float64(i), stats.Summary{N: 1, Mean: row[0]})
		l1.Append(float64(i), stats.Summary{N: 1, Mean: row[1]})
	}
	fig.Add(l0)
	fig.Add(l1)
	return fig, res.DualTrace, nil
}

// Fig4b reproduces Fig. 4(b): single-FBS average quality versus the number
// of licensed channels M = 4..12 step 2.
func Fig4b(p Params) (*stats.Figure, error) {
	xs := []float64{4, 6, 8, 10, 12}
	return sweep(p, "Fig. 4(b) — Video quality vs number of channels", "Number of channels (M)", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			cfg := p.Config
			cfg.M = int(x)
			return netmodel.PaperSingleFBS(cfg)
		}, false)
}

// Fig4c reproduces Fig. 4(c): single-FBS average quality versus channel
// utilization eta = 0.3..0.7, holding P10 fixed.
func Fig4c(p Params) (*stats.Figure, error) {
	xs := []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	return sweep(p, "Fig. 4(c) — Video quality vs channel utilization", "Channel utilization (eta)", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			cfg, err := p.Config.WithUtilization(x)
			if err != nil {
				return nil, err
			}
			return netmodel.PaperSingleFBS(cfg)
		}, false)
}

// Fig6a reproduces Fig. 6(a): interfering-FBS average quality versus
// channel utilization, including the eq. (23) upper bound.
func Fig6a(p Params) (*stats.Figure, error) {
	xs := []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	return sweep(p, "Fig. 6(a) — Interfering FBSs: video quality vs channel utilization",
		"Channel utilization (eta)", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			cfg, err := p.Config.WithUtilization(x)
			if err != nil {
				return nil, err
			}
			return netmodel.PaperInterfering(cfg)
		}, true)
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
	return sweep(p, "Fig. 6(b) — Interfering FBSs: video quality vs sensing error",
		"Probability of false alarm (epsilon)", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			cfg := p.Config
			cfg.Eps = x
			cfg.Delta = deltaOf[x]
			return netmodel.PaperInterfering(cfg)
		}, true)
}

// Fig6c reproduces Fig. 6(c): interfering-FBS average quality versus the
// common-channel bandwidth B0 = 0.1..0.5 Mbps with B1 fixed at 0.3 Mbps.
func Fig6c(p Params) (*stats.Figure, error) {
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	return sweep(p, "Fig. 6(c) — Interfering FBSs: video quality vs common-channel bandwidth",
		"Bandwidth of the common channel (Mbps)", xs,
		func(p Params, x float64) (*netmodel.Network, error) {
			cfg := p.Config
			cfg.B0 = x
			cfg.B1 = 0.3
			return netmodel.PaperInterfering(cfg)
		}, true)
}

// All runs every figure at the given scale and returns them keyed by id in
// presentation order.
func All(p Params) ([]Named, error) {
	var out []Named
	fig3, err := Fig3(p)
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}
	out = append(out, Named{ID: "fig3", Figure: fig3})
	fig4a, _, err := Fig4a(p, 600, 25)
	if err != nil {
		return nil, fmt.Errorf("fig4a: %w", err)
	}
	out = append(out, Named{ID: "fig4a", Figure: fig4a})
	for _, f := range []struct {
		id  string
		run func(Params) (*stats.Figure, error)
	}{
		{"fig4b", Fig4b}, {"fig4c", Fig4c}, {"fig5", Fig5},
		{"fig6a", Fig6a}, {"fig6b", Fig6b}, {"fig6c", Fig6c},
	} {
		fig, err := f.run(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.id, err)
		}
		out = append(out, Named{ID: f.id, Figure: fig})
	}
	return out, nil
}

// Named pairs a figure with its identifier.
type Named struct {
	ID     string
	Figure *stats.Figure
}
