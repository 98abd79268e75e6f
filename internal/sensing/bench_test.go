package sensing

import (
	"testing"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

func benchObservations(b *testing.B, n int) []Observation {
	b.Helper()
	d, err := NewDetector(0.3, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = d.Sense(markov.Idle, s)
	}
	return obs
}

func BenchmarkFusionIterative(b *testing.B) {
	obs := benchObservations(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := NewFuser(0.571)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range obs {
			f.Update(o)
		}
		_ = f.Posterior()
	}
}

func BenchmarkSense(b *testing.B) {
	d, err := NewDetector(0.3, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sense(markov.Busy, s)
	}
}

func BenchmarkAssignRoundRobin(b *testing.B) {
	out, perm := make([]int, 9), make([]int, 8)
	for i := 0; i < b.N; i++ {
		if err := AssignInto(out, perm, RoundRobin, i, nil); err != nil {
			b.Fatal(err)
		}
	}
}
