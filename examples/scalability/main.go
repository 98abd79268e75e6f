// Scalability: grow the interfering deployment beyond the paper's three
// femtocells and watch the greedy channel allocation, its Theorem 2
// guarantee, and the eq. (23) bound gap as the conflict graph stretches.
package main

import (
	"fmt"
	"log"

	"femtocr"
)

func main() {
	p := femtocr.QuickScale()
	p.Runs = 3
	p.GOPs = 6
	p.Parallel.Workers = 0 // one worker per CPU; results are identical for any count

	fmt.Println("interfering femtocells on a line (path interference graph)")
	fmt.Printf("%-5s %-6s %-14s %-14s %-14s %-10s %-8s\n",
		"N", "users", "Proposed (dB)", "H1 (dB)", "H2 (dB)", "bound gap", "elapsed")
	points, err := femtocr.Scalability(p)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range points {
		fmt.Printf("%-5d %-6d %-14.2f %-14.2f %-14.2f %-10.2f %-8s\n",
			pt.NumFBS, pt.Users, pt.Proposed.Mean, pt.H1.Mean, pt.H2.Mean,
			pt.BoundGapDB, pt.Elapsed.Round(1e7))
	}
	fmt.Println("\nThe path graph keeps Dmax = 2 for every N, so Theorem 2")
	fmt.Println("guarantees at least 1/3 of the optimum throughout; the measured")
	fmt.Println("eq. (23) gap stays far tighter than that worst case.")
}
