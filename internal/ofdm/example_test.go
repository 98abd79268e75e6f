package ofdm_test

import (
	"fmt"

	"femtocr/internal/ofdm"
)

// The exponential effective-SINR mapping: the effective SINR of a
// frequency-selective slot lies between the worst subcarrier and the
// arithmetic mean, weighting deep fades heavily.
func ExampleChannel_EffectiveSINR() {
	ch, err := ofdm.NewChannel(4, 0.3, 5)
	if err != nil {
		panic(err)
	}
	selective := []float64{0.5, 2, 4, 9} // one faded subcarrier
	flat := []float64{3.875, 3.875, 3.875, 3.875}
	fmt.Printf("selective EESM: %.2f (mean %.2f)\n", ch.EffectiveSINR(selective), 3.875)
	fmt.Printf("flat EESM:      %.2f\n", ch.EffectiveSINR(flat))
	// Output:
	// selective EESM: 2.66 (mean 3.88)
	// flat EESM:      3.88
}
