// Packet-level delivery: the §III-E discipline made visible. Streams the
// paper's three videos through explicit NAL-unit queues with
// significance-first transmission, ARQ retransmissions on faded slots, and
// overdue discards at GOP deadlines — then compares the reconstructed
// quality against the rate-based engine on identical randomness.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	cfg := femtocr.DefaultConfig()
	net, err := femtocr.NewNetwork(cfg, femtocr.PaperSingleSpec())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("packet-level vs rate-based engines (same seeds)")
	fmt.Printf("%-6s  %-18s  %-18s\n", "seed", "packet engine (dB)", "rate engine (dB)")
	var pktSum, rateSum float64
	const runs = 5
	for seed := uint64(1); seed <= runs; seed++ {
		pkt, err := femtocr.SimulatePackets(net, femtocr.PacketOptions{Seed: seed, GOPs: 15})
		if err != nil {
			log.Fatal(err)
		}
		rate, err := femtocr.Simulate(net, femtocr.SimOptions{Seed: seed, GOPs: 15})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d  %-18.2f  %-18.2f\n", seed, pkt.MeanPSNR, rate.MeanPSNR)
		pktSum += pkt.MeanPSNR
		rateSum += rate.MeanPSNR
	}
	fmt.Printf("mean    %-18.2f  %-18.2f\n\n", pktSum/runs, rateSum/runs)

	// Show the MAC-level statistics of one run.
	res, err := femtocr.SimulatePackets(net, femtocr.PacketOptions{Seed: 1, GOPs: 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MAC statistics (seed 1, 15 GOPs):")
	fmt.Printf("  fragments sent:        %d\n", res.SentPackets)
	fmt.Printf("  ARQ retransmissions:   %d\n", res.Retransmissions)
	fmt.Printf("  overdue NAL discards:  %d (MGS truncation at the deadline)\n", res.DroppedPackets)
	fmt.Printf("  delivered payload:     %.1f KiB\n", float64(res.DeliveredBytes)/1024)
	fmt.Printf("  collision rate:        %.3f (gamma %.2f)\n", res.CollisionRate, cfg.Gamma)
}
