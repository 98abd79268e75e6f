// Quickstart: build the paper's single-FBS scenario, stream three MGS
// videos for 20 GOPs under the proposed allocation, and print the received
// quality of every user.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	// The paper's §V defaults: M=8 licensed channels, P01=0.4/P10=0.3
	// (utilization eta ~ 0.57), collision threshold gamma=0.2, sensing
	// errors epsilon=delta=0.3, GOP deadline T=10 slots.
	cfg := femtocr.DefaultConfig()

	net, err := femtocr.NewNetwork(cfg, femtocr.PaperSingleSpec())
	if err != nil {
		log.Fatal(err)
	}

	res, err := femtocr.Simulate(net, femtocr.SimOptions{Seed: 42, GOPs: 20})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("femtocell CR video streaming — proposed scheme")
	fmt.Printf("channels: %d licensed (B1=%.1f Mbps) + common (B0=%.1f Mbps), eta=%.2f\n",
		cfg.M, cfg.B1, cfg.B0, cfg.Utilization())
	for j, u := range net.Users {
		fmt.Printf("  user %d streaming %-7s -> %.2f dB Y-PSNR\n",
			j+1, u.Seq.Name, res.PerUserPSNR[j])
	}
	fmt.Printf("mean quality: %.2f dB over %d GOPs\n", res.MeanPSNR, res.GOPs)
	fmt.Printf("primary-user collision rate: %.3f (bound gamma = %.2f)\n",
		res.CollisionRate, cfg.Gamma)
}
