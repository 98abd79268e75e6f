package ofdm

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/fading"
	"femtocr/internal/rng"
)

func mustChannel(t *testing.T, s int, corr, betaDB float64) *Channel {
	t.Helper()
	c, err := NewChannel(s, corr, betaDB)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewChannelValidation(t *testing.T) {
	cases := []struct {
		s    int
		corr float64
		beta float64
	}{
		{0, 0.5, 5},
		{-1, 0.5, 5},
		{16, -0.1, 5},
		{16, 1.0, 5},
		{16, 0.5, math.NaN()},
		{16, math.NaN(), 5},
	}
	for _, c := range cases {
		if _, err := NewChannel(c.s, c.corr, c.beta); !errors.Is(err, ErrBadChannel) {
			t.Errorf("NewChannel(%d, %v, %v) accepted", c.s, c.corr, c.beta)
		}
	}
	ch := mustChannel(t, 16, 0.5, 5)
	if ch.Subcarriers() != 16 {
		t.Fatal("subcarrier count")
	}
}

// TestSampleGainsUnitMean: each subcarrier's power gain is unit-mean
// Rayleigh regardless of the correlation.
func TestSampleGainsUnitMean(t *testing.T) {
	for _, corr := range []float64{0, 0.7, 0.95} {
		ch := mustChannel(t, 8, corr, 5)
		s := rng.New(uint64(1 + corr*100))
		sum := 0.0
		gains := make([]float64, ch.Subcarriers())
		const trials = 30000
		for i := 0; i < trials; i++ {
			ch.SampleGainsInto(gains, s)
			for _, g := range gains {
				sum += g
			}
		}
		mean := sum / float64(trials*8)
		if math.Abs(mean-1) > 0.03 {
			t.Fatalf("corr %v: mean gain %v, want ~1", corr, mean)
		}
	}
}

// TestSampleGainsCorrelation: adjacent subcarriers correlate as configured
// (power correlation = amplitude correlation squared for Rayleigh).
func TestSampleGainsCorrelation(t *testing.T) {
	ch := mustChannel(t, 2, 0.8, 5)
	s := rng.New(7)
	var sumX, sumY, sumXY, sumX2, sumY2 float64
	const trials = 100000
	g := make([]float64, ch.Subcarriers())
	for i := 0; i < trials; i++ {
		ch.SampleGainsInto(g, s)
		sumX += g[0]
		sumY += g[1]
		sumXY += g[0] * g[1]
		sumX2 += g[0] * g[0]
		sumY2 += g[1] * g[1]
	}
	n := float64(trials)
	cov := sumXY/n - (sumX/n)*(sumY/n)
	varX := sumX2/n - (sumX/n)*(sumX/n)
	varY := sumY2/n - (sumY/n)*(sumY/n)
	corr := cov / math.Sqrt(varX*varY)
	want := 0.8 * 0.8 // power correlation = |rho|^2
	if math.Abs(corr-want) > 0.02 {
		t.Fatalf("power correlation %v, want ~%v", corr, want)
	}
}

// TestEESMLimits: the effective SINR lies between the min and the
// arithmetic mean of the per-subcarrier SINRs, equals the common value on a
// flat channel, and approaches the mean as beta grows.
func TestEESMLimits(t *testing.T) {
	ch := mustChannel(t, 4, 0, 5)
	sinrs := []float64{1, 2, 4, 8}
	eff := ch.EffectiveSINR(sinrs)
	min, mean := 1.0, (1.0+2+4+8)/4
	if eff < min || eff > mean {
		t.Fatalf("EESM %v outside [min %v, mean %v]", eff, min, mean)
	}
	flat := []float64{3, 3, 3, 3}
	if got := ch.EffectiveSINR(flat); math.Abs(got-3) > 1e-9 {
		t.Fatalf("flat-channel EESM %v, want 3", got)
	}
	bigBeta := mustChannel(t, 4, 0, 60) // beta -> inf: arithmetic mean
	if got := bigBeta.EffectiveSINR(sinrs); math.Abs(got-mean) > 0.05 {
		t.Fatalf("large-beta EESM %v, want ~mean %v", got, mean)
	}
	smallBeta := mustChannel(t, 4, 0, -30) // beta -> 0: worst subcarrier
	if got := smallBeta.EffectiveSINR(sinrs); math.Abs(got-min) > 0.05 {
		t.Fatalf("small-beta EESM %v, want ~min %v", got, min)
	}
	if ch.EffectiveSINR(nil) != 0 {
		t.Fatal("empty SINR vector")
	}
}

// TestFrequencyDiversityReducesOutage: at the same mean SINR, the
// frequency-selective OFDM link has fewer deep outages than flat Rayleigh —
// the diversity payoff that motivates multicarrier transmission.
func TestFrequencyDiversityReducesOutage(t *testing.T) {
	ch := mustChannel(t, 16, 0.3, 5)
	model, err := NewGainModel(ch, 10, 20000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	flat := fading.Rayleigh{}
	// Outage at 10 dB below the mean: flat Rayleigh ~ 1-exp(-0.1) ~ 0.095.
	const x = 0.1
	if of, fl := model.OutageCDF(x), flat.OutageCDF(x); of >= fl/2 {
		t.Fatalf("OFDM outage %v not well below flat %v", of, fl)
	}
	// But the diversity-averaged gain concentrates below 1 (Jensen), so
	// outage above the mean crosses over.
	if model.OutageCDF(2.0) <= flat.OutageCDF(2.0) {
		t.Fatal("no crossover above the mean: EESM should concentrate")
	}
}

// TestGainModelPluggable: the model satisfies fading.Model and drives a
// fading.Link whose loss probability matches its own realization.
func TestGainModelPluggable(t *testing.T) {
	ch := mustChannel(t, 16, 0.3, 5)
	model, err := NewGainModel(ch, 12, 20000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	link, err := fading.NewLink(12, 5, model)
	if err != nil {
		t.Fatal(err)
	}
	analytic := link.LossProbability()
	s := rng.New(5)
	lost := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if link.Lost(s) {
			lost++
		}
	}
	emp := float64(lost) / trials
	if math.Abs(emp-analytic) > 0.015 {
		t.Fatalf("empirical loss %v vs table %v", emp, analytic)
	}
}

func TestGainModelValidation(t *testing.T) {
	ch := mustChannel(t, 8, 0.3, 5)
	if _, err := NewGainModel(nil, 10, 1000, rng.New(1)); !errors.Is(err, ErrBadChannel) {
		t.Fatal("nil channel accepted")
	}
	if _, err := NewGainModel(ch, math.NaN(), 1000, rng.New(1)); !errors.Is(err, ErrBadChannel) {
		t.Fatal("NaN SINR accepted")
	}
	m, err := NewGainModel(ch, 10, 10, rng.New(1)) // below minimum: raised to 1000
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
	if m.PowerGain(nil) <= 0 {
		t.Fatal("nil-stream draw failed")
	}
}
