package femtocr

// Benchmarks regenerating every figure of the paper's evaluation (§V).
// Each benchmark runs its experiment at a reduced-but-meaningful scale
// (3 runs x 5 GOPs per point; the paper uses 10 x 20 — use cmd/figures for
// the full scale) and reports the figure's headline numbers as custom
// metrics so `go test -bench .` doubles as a reproduction report:
//
//	proposed_dB     mean quality of the proposed scheme (averaged over x)
//	h1_gain_dB      proposed minus Heuristic 1
//	h2_gain_dB      proposed minus Heuristic 2
//	bound_gap_dB    eq. (23) upper bound minus proposed (where plotted)

import (
	"testing"

	"femtocr/internal/experiments"
	"femtocr/internal/stats"
)

// benchScale is the per-figure benchmark budget.
func benchScale() experiments.Params {
	p := experiments.PaperParams()
	p.Runs = 3
	p.GOPs = 5
	return p
}

// curveMean averages a curve's point means.
func curveMean(fig *stats.Figure, name string) float64 {
	c := fig.Curve(name)
	if c == nil || c.Len() == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < c.Len(); i++ {
		_, p := c.At(i)
		sum += p.Mean
	}
	return sum / float64(c.Len())
}

// reportSchemes attaches the standard metrics to a figure benchmark.
func reportSchemes(b *testing.B, fig *stats.Figure) {
	b.Helper()
	prop := curveMean(fig, "Proposed")
	b.ReportMetric(prop, "proposed_dB")
	if h1 := curveMean(fig, "Heuristic 1"); h1 != 0 {
		b.ReportMetric(prop-h1, "h1_gain_dB")
	}
	if h2 := curveMean(fig, "Heuristic 2"); h2 != 0 {
		b.ReportMetric(prop-h2, "h2_gain_dB")
	}
	if ub := curveMean(fig, "Upper bound"); ub != 0 {
		b.ReportMetric(ub-prop, "bound_gap_dB")
	}
}

// BenchmarkFig3 regenerates Fig. 3: single-FBS per-user video quality under
// the three schemes.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
		}
	}
}

// BenchmarkFig4a regenerates Fig. 4(a): convergence of the dual variables
// over the distributed algorithm's iterations.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			l0, l1 := fig.Curve("lambda_0"), fig.Curve("lambda_1")
			iter, last0 := l0.At(l0.Len() - 1)
			_, last1 := l1.At(l1.Len() - 1)
			b.ReportMetric(last0.Mean, "lambda0_final")
			b.ReportMetric(last1.Mean, "lambda1_final")
			b.ReportMetric(iter+1, "iterations")
		}
	}
}

// BenchmarkFig4b regenerates Fig. 4(b): quality vs number of channels M.
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
			// The paper's claim: the proposed curve has the steepest slope.
			c := fig.Curve("Proposed")
			_, lo := c.At(0)
			_, hi := c.At(c.Len() - 1)
			b.ReportMetric(hi.Mean-lo.Mean, "slope_dB")
		}
	}
}

// BenchmarkFig4c regenerates Fig. 4(c): quality vs channel utilization.
func BenchmarkFig4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4c(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
			c := fig.Curve("Proposed")
			_, lo := c.At(0)
			_, hi := c.At(c.Len() - 1)
			b.ReportMetric(lo.Mean-hi.Mean, "eta_drop_dB")
		}
	}
}

// BenchmarkFig6a regenerates Fig. 6(a): interfering FBSs, quality vs
// utilization, with the eq. (23) upper bound.
func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
		}
	}
}

// BenchmarkFig6b regenerates Fig. 6(b): quality vs the five sensing-error
// operating points.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
			// Dynamic range across operating points (the paper: small).
			c := fig.Curve("Proposed")
			lo, hi := 1e9, -1e9
			for j := 0; j < c.Len(); j++ {
				_, p := c.At(j)
				if p.Mean < lo {
					lo = p.Mean
				}
				if p.Mean > hi {
					hi = p.Mean
				}
			}
			b.ReportMetric(hi-lo, "range_dB")
		}
	}
}

// BenchmarkFig6c regenerates Fig. 6(c): quality vs common-channel
// bandwidth B0, demonstrating diminishing returns.
func BenchmarkFig6c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6c(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSchemes(b, fig)
			// Diminishing returns: early gain vs late gain along B0.
			c := fig.Curve("Proposed")
			_, p0 := c.At(0)
			_, p2 := c.At(2)
			_, p4 := c.At(c.Len() - 1)
			b.ReportMetric(p2.Mean-p0.Mean, "early_gain_dB")
			b.ReportMetric(p4.Mean-p2.Mean, "late_gain_dB")
		}
	}
}
