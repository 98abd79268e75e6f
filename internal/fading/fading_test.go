package fading

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/rng"
)

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10, 20} {
		if got := ToDB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Errorf("round trip %v dB -> %v", db, got)
		}
	}
	if FromDB(0) != 1 {
		t.Fatal("0 dB must be ratio 1")
	}
	if math.Abs(FromDB(3)-1.995) > 0.01 {
		t.Fatalf("3 dB = %v, want ~2", FromDB(3))
	}
}

func TestRayleighOutageCDF(t *testing.T) {
	r := Rayleigh{}
	if r.OutageCDF(0) != 0 || r.OutageCDF(-1) != 0 {
		t.Fatal("CDF below 0 must be 0")
	}
	if got := r.OutageCDF(1); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("CDF(1) = %v", got)
	}
	if got := r.OutageCDF(100); got < 0.999999 {
		t.Fatalf("CDF(100) = %v, want ~1", got)
	}
	if r.Name() != "rayleigh" {
		t.Fatal("name")
	}
}

func TestRayleighPowerGainUnitMean(t *testing.T) {
	s := rng.New(1)
	r := Rayleigh{}
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.PowerGain(s)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("mean gain %v, want ~1", mean)
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(math.NaN(), 5, nil); !errors.Is(err, ErrBadLink) {
		t.Fatal("NaN mean SINR accepted")
	}
	if _, err := NewLink(10, math.Inf(1), nil); !errors.Is(err, ErrBadLink) {
		t.Fatal("Inf threshold accepted")
	}
	l, err := NewLink(10, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Model().Name() != "rayleigh" {
		t.Fatal("nil model must default to Rayleigh")
	}
	if math.Abs(l.MeanSINRdB()-10) > 1e-9 || math.Abs(l.ThresholdDB()-5) > 1e-9 {
		t.Fatalf("accessors: %v dB, %v dB", l.MeanSINRdB(), l.ThresholdDB())
	}
}

// TestLossProbabilityEquation8: for Rayleigh, P_F = 1 - exp(-H/meanSINR).
func TestLossProbabilityEquation8(t *testing.T) {
	l, err := NewLink(10, 5, Rayleigh{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-FromDB(5)/FromDB(10))
	if got := l.LossProbability(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("P_F = %v, want %v", got, want)
	}
	if got := l.SuccessProbability(); math.Abs(got-(1-want)) > 1e-12 {
		t.Fatalf("success = %v", got)
	}
}

// TestLossProbabilityMonotonicity: stronger links lose fewer packets and a
// higher threshold loses more, for any fading model.
func TestLossProbabilityMonotonicity(t *testing.T) {
	err := quick.Check(func(sinrDeci, hDeci int16) bool {
		sinr := float64(sinrDeci%300) / 10 // -30..30 dB
		h := float64(hDeci%200) / 10       // -20..20 dB
		l1, err := NewLink(sinr, h, nil)
		if err != nil {
			return false
		}
		l2, err := NewLink(sinr+3, h, nil)
		if err != nil {
			return false
		}
		l3, err := NewLink(sinr, h+3, nil)
		if err != nil {
			return false
		}
		p1, p2, p3 := l1.LossProbability(), l2.LossProbability(), l3.LossProbability()
		inRange := p1 >= 0 && p1 <= 1
		return inRange && p2 <= p1+1e-12 && p3 >= p1-1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSampleLossMatchesAnalytic: realized loss frequency matches eq. (8).
func TestSampleLossMatchesAnalytic(t *testing.T) {
	l, err := NewLink(8, 5, Rayleigh{})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if l.Lost(s) {
			lost++
		}
	}
	got := float64(lost) / n
	if want := l.LossProbability(); math.Abs(got-want) > 0.005 {
		t.Fatalf("realized loss %v, analytic %v", got, want)
	}
}
