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
	p, net, err := setup(p, netmodel.PaperSingleSpec())
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
	sums, err := runGrid(p, len(schs), 2, func(pt int, seed uint64, out []float64) error {
		sch := schs[pt]
		rr, err := sim.Run(net, sim.Options{Seed: seed, GOPs: p.GOPs, Scheme: sch})
		if err != nil {
			return fmt.Errorf("rate engine scheme=%v: %w", sch, err)
		}
		pr, err := packetsim.Run(net, packetsim.Options{Seed: seed, GOPs: p.GOPs, Scheme: sch})
		if err != nil {
			return fmt.Errorf("packet engine scheme=%v: %w", sch, err)
		}
		out[0], out[1] = rr.MeanPSNR, pr.MeanPSNR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, sch := range schs {
		rate.Append(float64(sch), sums[si][0])
		pkt.Append(float64(sch), sums[si][1])
	}
	return fig, nil
}
