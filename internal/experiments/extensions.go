package experiments

import (
	"fmt"
	"time"

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
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Extension — collision budget vs quality and protection",
		"Collision threshold (gamma)", "Y-PSNR (dB) / collision rate")
	psnr := stats.NewSeries("Proposed Y-PSNR (dB)")
	coll := stats.NewSeries("Realized collision rate")
	fig.Add(psnr)
	fig.Add(coll)
	gammas := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	nets := make([]*netmodel.Network, len(gammas))
	for i, gamma := range gammas {
		cfg := p.Config
		cfg.Gamma = gamma
		if nets[i], err = netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec()); err != nil {
			return nil, err
		}
	}
	g, err := runGrid(p, len(gammas), 2, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(nets[pt], sim.Options{Seed: seed, GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("gamma=%v: %w", gammas[pt], err)
		}
		out[0], out[1] = res.MeanPSNR, res.CollisionRate
		return nil
	})
	if err != nil {
		return nil, err
	}
	for gi, gamma := range gammas {
		psnr.Append(gamma, g.sum[gi][0])
		coll.Append(gamma, g.sum[gi][1])
	}
	return fig, nil
}

// ScalePoint is one row of the scalability study.
type ScalePoint struct {
	NumFBS   int
	Users    int
	Proposed stats.Summary
	H1       stats.Summary
	H2       stats.Summary
	// BoundGapDB is the mean eq. (23) bound minus the proposed quality.
	BoundGapDB float64
	// Elapsed is the wall time of the proposed runs.
	Elapsed time.Duration
}

// Scalability grows the interfering deployment along a line (path
// interference graph, three users per femtocell) to N = 2, 3, 4 and 6 FBSs
// and measures quality per scheme, the eq. (23) bound gap, and the
// proposed scheme's cost. The paper evaluates N = 3; this probes how the
// greedy algorithm and its bound behave as the conflict graph grows.
func Scalability(p Params) ([]ScalePoint, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	sizes := []int{2, 3, 4, 6}
	trio := video.PaperTrio()
	heuristics := []sim.Scheme{sim.Heuristic1, sim.Heuristic2}
	var rows []ScalePoint
	for _, n := range sizes {
		groups := make([][]video.Sequence, n)
		for i := range groups {
			groups[i] = trio[:]
		}
		net, err := netmodel.NewNetwork(p.Config, netmodel.InterferingPathSpec(groups))
		if err != nil {
			return nil, err
		}
		pt := ScalePoint{NumFBS: n, Users: net.K()}
		start := time.Now()
		prop, err := runGrid(p, 1, 2, func(_ int, seed uint64, out []float64) error {
			res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, TrackBound: true})
			if err != nil {
				return fmt.Errorf("N=%d: %w", n, err)
			}
			out[0], out[1] = res.MeanPSNR, res.BoundPSNR
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt.Elapsed = time.Since(start)
		heur, err := runGrid(p, len(heuristics), 1, func(hi int, seed uint64, out []float64) error {
			res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, Scheme: heuristics[hi]})
			if err != nil {
				return fmt.Errorf("N=%d scheme=%v: %w", n, heuristics[hi], err)
			}
			out[0] = res.MeanPSNR
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt.Proposed, pt.H1, pt.H2 = prop.sum[0][0], heur.sum[0][0], heur.sum[1][0]
		pt.BoundGapDB = stats.MeanOf(prop.raw[0][1]) - pt.Proposed.Mean
		rows = append(rows, pt)
	}
	return rows, nil
}

// DeadlineSweep varies the delivery deadline T (slots per GOP) at a fixed
// GOP playout time. Larger T means finer-grained scheduling within the same
// wall-clock budget: more allocation decisions per GOP and more chances to
// ride good channel states, at the cost of more sensing overhead per frame
// in a real system. The paper fixes T = 10; this measures what that choice
// buys.
func DeadlineSweep(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Extension — delivery deadline granularity",
		"Slots per GOP deadline (T)", "Y-PSNR (dB)")
	series := stats.NewSeries("Proposed")
	fig.Add(series)
	deadlines := []int{2, 5, 10, 20}
	nets := make([]*netmodel.Network, len(deadlines))
	for i, tSlots := range deadlines {
		cfg := p.Config
		cfg.T = tSlots
		if nets[i], err = netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec()); err != nil {
			return nil, err
		}
	}
	g, err := runGrid(p, len(deadlines), 1, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(nets[pt], sim.Options{Seed: seed, GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("T=%d: %w", deadlines[pt], err)
		}
		out[0] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tSlots := range deadlines {
		series.Append(float64(tSlots), g.sum[ti][0])
	}
	return fig, nil
}

// UserCapacity answers the provisioning question a femtocell operator asks:
// how many video users can one femtocell CR cell carry at a target quality?
// It grows the user population of the single-FBS scenario (cycling through
// the sequence presets) and reports the mean quality at each size; the
// capacity at a target is the largest population whose mean stays above it.
// The populations are K = 1, 2, 3, 4, 6 and 8.
func UserCapacity(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	sizes := []int{1, 2, 3, 4, 6, 8}
	presets := video.StandardSequences()
	fig := stats.NewFigure("Extension — users per femtocell vs quality",
		"Users (K)", "Y-PSNR (dB)")
	mean := stats.NewSeries("Proposed mean")
	worst := stats.NewSeries("Proposed worst user")
	fig.Add(mean)
	fig.Add(worst)
	nets := make([]*netmodel.Network, len(sizes))
	for i, k := range sizes {
		videos := make([]video.Sequence, k)
		for j := range videos {
			videos[j] = presets[j%len(presets)]
		}
		if nets[i], err = netmodel.NewNetwork(p.Config, netmodel.SingleSpec(videos)); err != nil {
			return nil, err
		}
	}
	g, err := runGrid(p, len(sizes), 2, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(nets[pt], sim.Options{Seed: seed, GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("K=%d: %w", sizes[pt], err)
		}
		out[0], out[1] = res.MeanPSNR, res.MinUserPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range sizes {
		mean.Append(float64(k), g.sum[ki][0])
		worst.Append(float64(k), g.sum[ki][1])
	}
	return fig, nil
}

// SchemeFrontier measures every scheduler on the single-FBS workload along
// two axes at once — mean quality and Jain fairness of the quality gains —
// tracing the fairness-efficiency frontier: proportional fairness (the
// paper), pure throughput maximization, the two paper heuristics, and
// blind TDMA. The x-axis is the scheme index in sim.Scheme order.
func SchemeFrontier(p Params) (*stats.Figure, error) {
	p, net, err := setup(p, netmodel.PaperSingleSpec())
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Extension — fairness-efficiency frontier",
		"Scheme (1=Proposed 2=H1 3=H2 4=RoundRobin 5=MaxThroughput)",
		"Y-PSNR (dB) / Jain index")
	mean := stats.NewSeries("Mean Y-PSNR (dB)")
	fair := stats.NewSeries("Jain fairness of gains")
	fig.Add(mean)
	fig.Add(fair)
	schs := []sim.Scheme{
		sim.Proposed, sim.Heuristic1, sim.Heuristic2, sim.RoundRobin, sim.MaxThroughput,
	}
	g, err := runGrid(p, len(schs), 2, func(pt int, seed uint64, out []float64) error {
		res, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, Scheme: schs[pt]})
		if err != nil {
			return fmt.Errorf("scheme=%v: %w", schs[pt], err)
		}
		out[0], out[1] = res.MeanPSNR, res.FairnessIndex
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, sch := range schs {
		mean.Append(float64(sch), g.sum[si][0])
		fair.Append(float64(sch), g.sum[si][1])
	}
	return fig, nil
}
