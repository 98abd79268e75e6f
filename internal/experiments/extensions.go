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
		var err error
		if nets[i], err = netmodel.PaperSingleFBS(cfg); err != nil {
			return nil, err
		}
	}
	type cell struct{ psnr, coll float64 }
	slots := make([]cell, len(gammas)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		gi, r := i/p.Runs, i%p.Runs
		res, err := sim.Run(nets[gi], sim.Options{Seed: p.BaseSeed + uint64(r), GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("gamma=%v run %d: %w", gammas[gi], r, err)
		}
		slots[i] = cell{psnr: res.MeanPSNR, coll: res.CollisionRate}
		return nil
	})
	if err != nil {
		return nil, err
	}
	quals := make([]float64, p.Runs)
	colls := make([]float64, p.Runs)
	for gi, gamma := range gammas {
		for r := 0; r < p.Runs; r++ {
			quals[r] = slots[gi*p.Runs+r].psnr
			colls[r] = slots[gi*p.Runs+r].coll
		}
		qs, err := mergeSummary(quals)
		if err != nil {
			return nil, err
		}
		cs, err := mergeSummary(colls)
		if err != nil {
			return nil, err
		}
		psnr.Append(gamma, qs)
		coll.Append(gamma, cs)
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
// interference graph, three users per femtocell) and measures quality per
// scheme, the eq. (23) bound gap, and the proposed scheme's cost. The paper
// evaluates N = 3; this probes how the greedy algorithm and its bound
// behave as the conflict graph grows.
func Scalability(p Params, sizes []int) ([]ScalePoint, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{2, 3, 4, 6}
	}
	trio := video.PaperTrio()
	var out []ScalePoint
	for _, n := range sizes {
		groups := make([][]video.Sequence, n)
		for i := range groups {
			groups[i] = trio[:]
		}
		net, err := netmodel.InterferingPath(p.Config, groups)
		if err != nil {
			return nil, err
		}
		pt := ScalePoint{NumFBS: n, Users: net.K()}

		prop := make([]float64, p.Runs)
		bound := make([]float64, p.Runs)
		h1 := make([]float64, p.Runs)
		h2 := make([]float64, p.Runs)
		start := time.Now()
		err = runGrid(p.Runs, p.workers(), func(r int) error {
			res, err := sim.Run(net, sim.Options{
				Seed:       p.BaseSeed + uint64(r),
				GOPs:       p.GOPs,
				TrackBound: true,
			})
			if err != nil {
				return fmt.Errorf("N=%d run %d: %w", n, r, err)
			}
			prop[r] = res.MeanPSNR
			bound[r] = res.BoundPSNR
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt.Elapsed = time.Since(start)
		err = runGrid(2*p.Runs, p.workers(), func(i int) error {
			sch, r := sim.Heuristic1, i
			if i >= p.Runs {
				sch, r = sim.Heuristic2, i-p.Runs
			}
			res, err := sim.Run(net, sim.Options{
				Seed: p.BaseSeed + uint64(r), GOPs: p.GOPs, Scheme: sch,
			})
			if err != nil {
				return fmt.Errorf("N=%d scheme=%v run %d: %w", n, sch, r, err)
			}
			if sch == sim.Heuristic1 {
				h1[r] = res.MeanPSNR
			} else {
				h2[r] = res.MeanPSNR
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if pt.Proposed, err = mergeSummary(prop); err != nil {
			return nil, err
		}
		if pt.H1, err = mergeSummary(h1); err != nil {
			return nil, err
		}
		if pt.H2, err = mergeSummary(h2); err != nil {
			return nil, err
		}
		pt.BoundGapDB = stats.MeanOf(bound) - pt.Proposed.Mean
		out = append(out, pt)
	}
	return out, nil
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
		var err error
		if nets[i], err = netmodel.PaperSingleFBS(cfg); err != nil {
			return nil, err
		}
	}
	slots := make([]float64, len(deadlines)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		ti, r := i/p.Runs, i%p.Runs
		res, err := sim.Run(nets[ti], sim.Options{Seed: p.BaseSeed + uint64(r), GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("T=%d run %d: %w", deadlines[ti], r, err)
		}
		slots[i] = res.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tSlots := range deadlines {
		s, err := mergeSummary(slots[ti*p.Runs : (ti+1)*p.Runs])
		if err != nil {
			return nil, err
		}
		series.Append(float64(tSlots), s)
	}
	return fig, nil
}

// UserCapacity answers the provisioning question a femtocell operator asks:
// how many video users can one femtocell CR cell carry at a target quality?
// It grows the user population of the single-FBS scenario (cycling through
// the sequence presets) and reports the mean quality at each size; the
// capacity at a target is the largest population whose mean stays above it.
func UserCapacity(p Params, sizes []int) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{1, 2, 3, 4, 6, 8}
	}
	presets := video.StandardSequences()
	fig := stats.NewFigure("Extension — users per femtocell vs quality",
		"Users (K)", "Y-PSNR (dB)")
	mean := stats.NewSeries("Proposed mean")
	worst := stats.NewSeries("Proposed worst user")
	fig.Add(mean)
	fig.Add(worst)
	nets := make([]*netmodel.Network, len(sizes))
	for i, k := range sizes {
		if k < 1 {
			return nil, fmt.Errorf("%w: K=%d", ErrBadParams, k)
		}
		videos := make([]video.Sequence, k)
		for j := range videos {
			videos[j] = presets[j%len(presets)]
		}
		var err error
		if nets[i], err = netmodel.SingleFBS(p.Config, videos); err != nil {
			return nil, err
		}
	}
	type cell struct{ mean, worst float64 }
	slots := make([]cell, len(sizes)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		ki, r := i/p.Runs, i%p.Runs
		res, err := sim.Run(nets[ki], sim.Options{Seed: p.BaseSeed + uint64(r), GOPs: p.GOPs})
		if err != nil {
			return fmt.Errorf("K=%d run %d: %w", sizes[ki], r, err)
		}
		slots[i] = cell{mean: res.MeanPSNR, worst: res.MinUserPSNR}
		return nil
	})
	if err != nil {
		return nil, err
	}
	means := make([]float64, p.Runs)
	worsts := make([]float64, p.Runs)
	for ki, k := range sizes {
		for r := 0; r < p.Runs; r++ {
			means[r] = slots[ki*p.Runs+r].mean
			worsts[r] = slots[ki*p.Runs+r].worst
		}
		ms, err := mergeSummary(means)
		if err != nil {
			return nil, err
		}
		ws, err := mergeSummary(worsts)
		if err != nil {
			return nil, err
		}
		mean.Append(float64(k), ms)
		worst.Append(float64(k), ws)
	}
	return fig, nil
}

// SchemeFrontier measures every scheduler on the single-FBS workload along
// two axes at once — mean quality and Jain fairness of the quality gains —
// tracing the fairness-efficiency frontier: proportional fairness (the
// paper), pure throughput maximization, the two paper heuristics, and
// blind TDMA. The x-axis is the scheme index in sim.Scheme order.
func SchemeFrontier(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	net, err := netmodel.PaperSingleFBS(p.Config)
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
	type cell struct{ psnr, fair float64 }
	slots := make([]cell, len(schs)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		sch := schs[i/p.Runs]
		r := i % p.Runs
		res, err := sim.Run(net, sim.Options{Seed: p.BaseSeed + uint64(r), GOPs: p.GOPs, Scheme: sch})
		if err != nil {
			return fmt.Errorf("scheme=%v run %d: %w", sch, r, err)
		}
		slots[i] = cell{psnr: res.MeanPSNR, fair: res.FairnessIndex}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ms := make([]float64, p.Runs)
	fs := make([]float64, p.Runs)
	for si, sch := range schs {
		for r := 0; r < p.Runs; r++ {
			ms[r] = slots[si*p.Runs+r].psnr
			fs[r] = slots[si*p.Runs+r].fair
		}
		msum, err := mergeSummary(ms)
		if err != nil {
			return nil, err
		}
		fsum, err := mergeSummary(fs)
		if err != nil {
			return nil, err
		}
		mean.Append(float64(sch), msum)
		fair.Append(float64(sch), fsum)
	}
	return fig, nil
}
