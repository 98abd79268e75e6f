// Single-FBS scheme comparison: the Fig. 3 experiment in miniature. Streams
// Bus, Mobile and Harbor to three CR users under all three schemes over
// five replications of twenty GOPs, and prints the per-user quality bars
// with the distributed algorithm's dual-variable convergence (Fig. 4(a)).
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	figs, err := femtocr.Figures(femtocr.ExperimentParams{Runs: 5, GOPs: 20, BaseSeed: 100}, "3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(figs[0].Figure.Render())

	net, err := femtocr.NewNetwork(femtocr.DefaultConfig(), femtocr.PaperSingleSpec())
	if err != nil {
		log.Fatal(err)
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
	fmt.Println("=== dual-variable convergence (first slot) ===")
	fmt.Println("iter    lambda_0      lambda_1")
	for i, row := range res.DualTrace {
		if i%50 != 0 && i != len(res.DualTrace)-1 {
			continue
		}
		fmt.Printf("%4d  %10.6f  %10.6f\n", i, row[0], row[1])
	}
}
