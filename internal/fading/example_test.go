package fading_test

import (
	"fmt"

	"femtocr/internal/fading"
)

// The packet-loss probability of eq. (8) for a Rayleigh link: a 10 dB mean
// SINR link decoding at a 5 dB threshold loses about 27% of its packets.
func ExampleLink_LossProbability() {
	link, err := fading.NewLink(10, 5, fading.Rayleigh{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P_F = %.3f\n", link.LossProbability())
	// A 10x stronger link is nearly lossless.
	strong, _ := fading.NewLink(20, 5, fading.Rayleigh{})
	fmt.Printf("strong P_F = %.3f\n", strong.LossProbability())
	// Output:
	// P_F = 0.271
	// strong P_F = 0.031
}
