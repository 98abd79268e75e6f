// Interfering femtocells: the §V-B scenario. Three FBSs whose coverages
// overlap pairwise along a line (the Fig. 5 path graph) stream nine videos.
// The example prints the interference graph, the Theorem 2 guarantee, the
// per-scheme quality, and the eq. (23) upper bound on the optimum.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	cfg := femtocr.DefaultConfig()
	net, err := femtocr.NewNetwork(cfg, femtocr.PaperInterferingSpec())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(net.Graph.String())
	dmax := net.Graph.MaxDegree()
	fmt.Printf("Theorem 2: the greedy channel allocation achieves at least 1/%d of the optimum\n\n", 1+dmax)

	const runs = 3
	var proposedMean, boundMean float64
	for _, sch := range []femtocr.Scheme{femtocr.Proposed, femtocr.Heuristic1, femtocr.Heuristic2} {
		sum, bsum := 0.0, 0.0
		for r := 0; r < runs; r++ {
			res, err := femtocr.Simulate(net, femtocr.SimOptions{
				Seed:       200 + uint64(r),
				GOPs:       10,
				Scheme:     sch,
				TrackBound: sch == femtocr.Proposed,
			})
			if err != nil {
				log.Fatal(err)
			}
			sum += res.MeanPSNR
			bsum += res.BoundPSNR
		}
		fmt.Printf("%-12s mean Y-PSNR %.2f dB\n", sch, sum/runs)
		if sch == femtocr.Proposed {
			proposedMean = sum / runs
			boundMean = bsum / runs
		}
	}
	fmt.Printf("\neq. (23) upper bound on the optimum: %.2f dB (gap to proposed: %.2f dB)\n",
		boundMean, boundMean-proposedMean)
}
