package sensing

import (
	"math"
	"testing"
)

// FuzzPosterior hunts for detector/prior/observation combinations where the
// fused availability leaves [0, 1] or produces NaN.
func FuzzPosterior(f *testing.F) {
	f.Add(0.571, 0.3, 0.3, uint8(0b1010), uint8(4))
	f.Add(0.0, 0.0, 0.0, uint8(0b1), uint8(1))
	f.Add(0.99, 0.98, 0.0, uint8(0xFF), uint8(8))
	f.Fuzz(func(t *testing.T, eta, eps, delta float64, bits, n uint8) {
		if math.IsNaN(eta) || eta < 0 || eta >= 1 {
			return
		}
		if math.IsNaN(eps) || eps < 0 || eps >= 1 || math.IsNaN(delta) || delta < 0 || delta >= 1 {
			return
		}
		det, err := NewDetector(eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		count := int(n % 9)
		obs := make([]Observation, count)
		for i := range obs {
			obs[i] = Observation{Busy: bits&(1<<i) != 0, Detector: det}
		}
		p, err := fuse(eta, obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("posterior %v for eta=%v eps=%v delta=%v obs=%08b", p, eta, eps, delta, bits)
		}
	})
}
