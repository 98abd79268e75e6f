package markov_test

import (
	"fmt"

	"femtocr/internal/markov"
)

// The paper's default licensed-channel model: P01 = 0.4, P10 = 0.3,
// giving utilization eta = 0.4/0.7 (eq. 1).
func ExampleChain_Utilization() {
	chain, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("eta = %.4f\n", chain.Utilization())
	// Output:
	// eta = 0.5714
}

// Retuning a channel to a target utilization, as the Fig. 4(c) sweep does.
func ExampleFromUtilization() {
	chain, err := markov.FromUtilization(0.3, 0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P01 = %.4f, P10 = %.4f, eta = %.2f\n", chain.P01(), chain.P10(), chain.Utilization())
	// Output:
	// P01 = 0.1286, P10 = 0.3000, eta = 0.30
}
