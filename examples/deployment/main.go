// Deployment realism: turn on every "the operator does not know X"
// extension at once — channel utilizations learned online from noisy
// sensing, the Bayesian occupancy filter for slowly-varying primary
// traffic, OFDM frequency-selective links, and adaptive per-GOP encoding —
// and compare against the paper's idealized assumptions.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	// Slow primary traffic (same eta = 0.571, 5x longer busy/idle runs):
	// the regime where learning and filtering pay.
	cfg := femtocr.DefaultConfig()
	cfg.P01, cfg.P10 = 0.08, 0.06
	cfg.OFDMSubcarriers = 16

	net, err := femtocr.NewNetwork(cfg, femtocr.PaperSingleSpec())
	if err != nil {
		log.Fatal(err)
	}

	const runs = 4
	mean := func(opts femtocr.SimOptions) float64 {
		sum := 0.0
		for seed := uint64(1); seed <= runs; seed++ {
			opts.Seed = seed
			opts.GOPs = 20
			res, err := femtocr.Simulate(net, opts)
			if err != nil {
				log.Fatal(err)
			}
			sum += res.MeanPSNR
		}
		return sum / runs
	}

	fmt.Println("slowly-varying primary traffic, OFDM links (16 subcarriers)")
	fmt.Printf("  idealized (eta known, stationary prior): %.2f dB\n",
		mean(femtocr.SimOptions{}))
	fmt.Printf("  eta learned online:                      %.2f dB\n",
		mean(femtocr.SimOptions{Prior: femtocr.EstimatedPrior}))
	fmt.Printf("  Bayesian occupancy filter:               %.2f dB\n",
		mean(femtocr.SimOptions{Prior: femtocr.BeliefPrior}))

	// Packet level: fixed full-rate encode vs adaptive re-encode.
	pkt := func(adaptive bool) (float64, int) {
		sum, drops := 0.0, 0
		for seed := uint64(1); seed <= runs; seed++ {
			res, err := femtocr.SimulatePackets(net, femtocr.PacketOptions{
				Seed: seed, GOPs: 20, AdaptiveRate: adaptive,
			})
			if err != nil {
				log.Fatal(err)
			}
			sum += res.MeanPSNR
			drops += res.DroppedPackets
		}
		return sum / runs, drops
	}
	fixedPSNR, fixedDrops := pkt(false)
	adaptPSNR, adaptDrops := pkt(true)
	fmt.Println("\npacket level, per-GOP encoding policy:")
	fmt.Printf("  fixed saturation-rate encode: %.2f dB, %d overdue discards\n", fixedPSNR, fixedDrops)
	fmt.Printf("  EWMA-adaptive encode:         %.2f dB, %d overdue discards\n", adaptPSNR, adaptDrops)
}
