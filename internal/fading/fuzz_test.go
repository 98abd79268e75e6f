package fading

import (
	"math"
	"testing"
)

// FuzzLink checks the packet-loss probability stays a probability for any
// finite link geometry.
func FuzzLink(f *testing.F) {
	f.Add(10.0, 5.0)
	f.Add(-20.0, 30.0)
	f.Add(60.0, -10.0)
	f.Fuzz(func(t *testing.T, sinrDB, hDB float64) {
		if math.IsNaN(sinrDB) || math.IsInf(sinrDB, 0) || math.IsNaN(hDB) || math.IsInf(hDB, 0) {
			return
		}
		if sinrDB < -100 || sinrDB > 100 || hDB < -100 || hDB > 100 {
			return
		}
		l, err := NewLink(sinrDB, hDB, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := l.LossProbability()
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("loss probability %v for SINR %v dB, H %v dB", p, sinrDB, hDB)
		}
	})
}
