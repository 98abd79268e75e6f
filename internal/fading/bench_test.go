package fading

import (
	"testing"

	"femtocr/internal/rng"
)

func BenchmarkRayleighSample(b *testing.B) {
	s := rng.New(1)
	m := Rayleigh{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PowerGain(s)
	}
}

func BenchmarkLinkLossProbability(b *testing.B) {
	l, err := NewLink(12, 5, Rayleigh{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.LossProbability()
	}
}
