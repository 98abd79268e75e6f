package sensing_test

import (
	"fmt"

	"femtocr/internal/sensing"
)

// The iterative decomposition of eqs. (3)-(4): results arrive one at a time
// over the common channel and the posterior is updated incrementally.
func ExampleFuser() {
	det, _ := sensing.NewDetector(0.3, 0.3)
	f, err := sensing.NewFuser(0.571)
	if err != nil {
		panic(err)
	}
	fmt.Printf("prior:        %.4f\n", f.Posterior())
	f.Update(sensing.Observation{Busy: false, Detector: det})
	fmt.Printf("after idle:   %.4f\n", f.Posterior())
	f.Update(sensing.Observation{Busy: false, Detector: det})
	fmt.Printf("after idle:   %.4f\n", f.Posterior())
	// Output:
	// prior:        0.4290
	// after idle:   0.6368
	// after idle:   0.8036
}
