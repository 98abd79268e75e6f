package spectrum_test

import (
	"fmt"

	"femtocr/internal/markov"
	"femtocr/internal/spectrum"
)

// The paper's licensed band: M = 8 channels at 0.3 Mbps each on the
// P01 = 0.4 / P10 = 0.3 occupancy chain, plus the 0.3 Mbps common channel.
func ExampleNewBand() {
	chain, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		panic(err)
	}
	band, err := spectrum.NewBand(8, 0.3, 0.3, chain)
	if err != nil {
		panic(err)
	}
	fmt.Printf("licensed channels: %d\n", band.M())
	fmt.Printf("utilization eta: %.4f\n", band.Utilization())
	// Output:
	// licensed channels: 8
	// utilization eta: 0.5714
}
