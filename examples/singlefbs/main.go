// Single-FBS scheme comparison: the Fig. 3 experiment in miniature. Streams
// Bus, Mobile and Harbor to three CR users under all three schemes, averages
// several replications, and prints the per-user quality bars with the
// distributed algorithm's dual-variable convergence (Fig. 4(a)).
package main

import (
	"fmt"
	"log"

	"femtocr"
	"femtocr/internal/stats"
)

func main() {
	cfg := femtocr.DefaultConfig()
	net, err := femtocr.NewNetwork(cfg, femtocr.PaperSingleSpec())
	if err != nil {
		log.Fatal(err)
	}

	const runs = 5
	fmt.Println("=== per-user video quality (mean of", runs, "runs) ===")
	for _, sch := range []femtocr.Scheme{femtocr.Proposed, femtocr.Heuristic1, femtocr.Heuristic2} {
		perUser := make([]stats.Running, net.K())
		for r := 0; r < runs; r++ {
			res, err := femtocr.Simulate(net, femtocr.SimOptions{
				Seed:   100 + uint64(r),
				GOPs:   20,
				Scheme: sch,
			})
			if err != nil {
				log.Fatal(err)
			}
			for j, v := range res.PerUserPSNR {
				perUser[j].Add(v)
			}
		}
		fmt.Printf("%-12s", sch)
		for j := range perUser {
			fmt.Printf("  user%d %.2f dB", j+1, perUser[j].Mean())
		}
		fmt.Println()
	}

	// Dual-variable convergence of the distributed algorithm (Fig. 4(a)).
	res, err := femtocr.Simulate(net, femtocr.SimOptions{
		Seed:      100,
		GOPs:      1,
		DualTrace: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== dual-variable convergence (first slot) ===")
	fmt.Println("iter    lambda_0      lambda_1")
	for i, row := range res.DualTrace {
		if i%50 != 0 && i != len(res.DualTrace)-1 {
			continue
		}
		fmt.Printf("%4d  %10.6f  %10.6f\n", i, row[0], row[1])
	}
}
