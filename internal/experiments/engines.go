package experiments

import (
	"fmt"

	"femtocr/internal/netmodel"
	"femtocr/internal/packetsim"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
)

// EngineComparison cross-validates the two simulation engines: the
// rate-based engine of internal/sim (expected-quality accounting, the
// paper's model) and the packet-level engine of internal/packetsim
// (explicit NAL queues, ARQ, deadlines). One curve per engine per scheme,
// indexed by scheme number; the curves should track each other closely.
func EngineComparison(p Params) (*stats.Figure, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	net, err := netmodel.PaperSingleFBS(p.Config)
	if err != nil {
		return nil, err
	}
	fig := stats.NewFigure("Validation — rate-based vs packet-level engines",
		"Scheme (1=Proposed, 2=Heuristic 1, 3=Heuristic 2)", "Y-PSNR (dB)")
	rate := stats.NewSeries("Rate-based engine")
	pkt := stats.NewSeries("Packet-level engine")
	fig.Add(rate)
	fig.Add(pkt)

	schs := schemes()
	type cell struct{ rate, pkt float64 }
	slots := make([]cell, len(schs)*p.Runs)
	err = runGrid(len(slots), p.workers(), func(i int) error {
		sch := schs[i/p.Runs]
		r := i % p.Runs
		seed := p.BaseSeed + uint64(r)
		rr, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, Scheme: sch})
		if err != nil {
			return fmt.Errorf("rate engine scheme=%v run %d: %w", sch, r, err)
		}
		pr, err := packetsim.Run(net, packetsim.Options{Seed: seed, GOPs: p.GOPs, Scheme: sch})
		if err != nil {
			return fmt.Errorf("packet engine scheme=%v run %d: %w", sch, r, err)
		}
		slots[i] = cell{rate: rr.MeanPSNR, pkt: pr.MeanPSNR}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rateVals := make([]float64, p.Runs)
	pktVals := make([]float64, p.Runs)
	for si, sch := range schs {
		for r := 0; r < p.Runs; r++ {
			rateVals[r] = slots[si*p.Runs+r].rate
			pktVals[r] = slots[si*p.Runs+r].pkt
		}
		rs, err := mergeSummary(rateVals)
		if err != nil {
			return nil, err
		}
		ps, err := mergeSummary(pktVals)
		if err != nil {
			return nil, err
		}
		rate.Append(float64(sch), rs)
		pkt.Append(float64(sch), ps)
	}
	return fig, nil
}
