package sensing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

func det(t *testing.T, eps, delta float64) Detector {
	t.Helper()
	d, err := NewDetector(eps, delta)
	if err != nil {
		t.Fatalf("NewDetector(%v, %v): %v", eps, delta, err)
	}
	return d
}

// fuse drives a Fuser through obs from the prior eta, the way the sensing
// front end fuses one channel's results in a slot.
func fuse(eta float64, obs []Observation) (float64, error) {
	f, err := NewFuser(eta)
	if err != nil {
		return 0, err
	}
	for _, o := range obs {
		f.Update(o)
	}
	return f.Posterior(), nil
}

func TestNewDetectorValidation(t *testing.T) {
	cases := []struct {
		eps, delta float64
		ok         bool
	}{
		{0.3, 0.3, true},
		{0, 0, true},
		{0.99, 0.99, true},
		{1, 0.3, false},
		{0.3, 1, false},
		{-0.1, 0.3, false},
		{0.3, -0.1, false},
		{math.NaN(), 0.3, false},
		{0.3, math.NaN(), false},
	}
	for _, c := range cases {
		_, err := NewDetector(c.eps, c.delta)
		if c.ok && err != nil {
			t.Errorf("NewDetector(%v,%v) unexpected err %v", c.eps, c.delta, err)
		}
		if !c.ok && !errors.Is(err, ErrBadDetector) {
			t.Errorf("NewDetector(%v,%v) err = %v, want ErrBadDetector", c.eps, c.delta, err)
		}
	}
}

func TestSenseErrorRates(t *testing.T) {
	d := det(t, 0.3, 0.2)
	s := rng.New(1)
	const n = 200000
	falseAlarms, misses := 0, 0
	for i := 0; i < n; i++ {
		if d.Sense(markov.Idle, s).Busy {
			falseAlarms++
		}
		if !d.Sense(markov.Busy, s).Busy {
			misses++
		}
	}
	if got := float64(falseAlarms) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("false alarm rate %v, want ~0.3", got)
	}
	if got := float64(misses) / n; math.Abs(got-0.2) > 0.01 {
		t.Fatalf("miss rate %v, want ~0.2", got)
	}
}

func TestPosteriorNoObservationsIsPrior(t *testing.T) {
	for _, eta := range []float64{0, 0.3, 0.7, 0.99} {
		got, err := fuse(eta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-(1-eta)) > 1e-12 {
			t.Fatalf("eta=%v: posterior %v, want prior %v", eta, got, 1-eta)
		}
	}
}

func TestPosteriorBadPrior(t *testing.T) {
	if _, err := fuse(1.0, nil); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("eta=1 err = %v, want ErrBadPrior", err)
	}
	if _, err := fuse(-0.1, nil); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("eta=-0.1 err = %v, want ErrBadPrior", err)
	}
	if _, err := fuse(math.NaN(), nil); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("eta=NaN err = %v, want ErrBadPrior", err)
	}
	var f Fuser
	if err := f.Reset(math.NaN()); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("Reset(NaN) err = %v, want ErrBadPrior", err)
	}
}

// TestPosteriorMatchesEquation2 checks the iterative fusion of eqs. (3)-(4)
// against a direct transcription of eq. (2) for several observation vectors.
func TestPosteriorMatchesEquation2(t *testing.T) {
	eta := 0.4
	d1 := det(t, 0.3, 0.3)
	d2 := det(t, 0.2, 0.48)
	obsSets := [][]Observation{
		{{Busy: false, Detector: d1}},
		{{Busy: true, Detector: d1}},
		{{Busy: false, Detector: d1}, {Busy: true, Detector: d2}},
		{{Busy: true, Detector: d1}, {Busy: true, Detector: d2}, {Busy: false, Detector: d1}},
	}
	for _, obs := range obsSets {
		prod := 1.0
		for _, o := range obs {
			eps, delta := o.Detector.FalseAlarm(), o.Detector.MissDetect()
			theta := 0.0
			if o.Busy {
				theta = 1
			}
			num := math.Pow(delta, 1-theta) * math.Pow(1-delta, theta)
			den := math.Pow(eps, theta) * math.Pow(1-eps, 1-theta)
			prod *= num / den
		}
		want := 1 / (1 + eta/(1-eta)*prod)
		got, err := fuse(eta, obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("obs %v: posterior %v, want %v (eq. 2)", obs, got, want)
		}
	}
}

// TestPosteriorOrderInvariant: the fusion of eq. (2) is a product, so the
// posterior must not depend on the order in which results arrive.
func TestPosteriorOrderInvariant(t *testing.T) {
	d1 := det(t, 0.3, 0.3)
	d2 := det(t, 0.1, 0.4)
	obs := []Observation{
		{Busy: true, Detector: d1},
		{Busy: false, Detector: d2},
		{Busy: true, Detector: d2},
		{Busy: false, Detector: d1},
	}
	ref, err := fuse(0.5, obs)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Observation, len(obs))
	for i, o := range obs {
		rev[len(obs)-1-i] = o
	}
	got, err := fuse(0.5, rev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ref) > 1e-12 {
		t.Fatalf("posterior order-dependent: %v vs %v", got, ref)
	}
}

// TestPosteriorDirection: an idle report must raise the availability
// posterior and a busy report must lower it, for any informative detector
// (epsilon + delta < 1).
func TestPosteriorDirection(t *testing.T) {
	err := quick.Check(func(etaPct, epsPct, deltaPct uint8) bool {
		eta := float64(etaPct%80+10) / 100 // (0.1 .. 0.9)
		eps := float64(epsPct%50) / 100    // < 0.5
		delta := float64(deltaPct%50) / 100
		if eps+delta >= 1 {
			return true
		}
		d, err := NewDetector(eps, delta)
		if err != nil {
			return false
		}
		prior := 1 - eta
		idlePost, err := fuse(eta, []Observation{{Busy: false, Detector: d}})
		if err != nil {
			return false
		}
		busyPost, err := fuse(eta, []Observation{{Busy: true, Detector: d}})
		if err != nil {
			return false
		}
		return idlePost >= prior-1e-12 && busyPost <= prior+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPosteriorBounds: P_A always lies in [0, 1].
func TestPosteriorBounds(t *testing.T) {
	err := quick.Check(func(seed uint64, etaPct, epsPct, deltaPct, n uint8) bool {
		eta := float64(etaPct%99) / 100
		d, err := NewDetector(float64(epsPct%99)/100, float64(deltaPct%99)/100)
		if err != nil {
			return false
		}
		s := rng.New(seed)
		obs := make([]Observation, int(n%32))
		for i := range obs {
			obs[i] = Observation{Busy: s.Bernoulli(0.5), Detector: d}
		}
		p, err := fuse(eta, obs)
		if err != nil {
			return false
		}
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerfectDetectorPosterior(t *testing.T) {
	d := det(t, 0, 0) // never wrong
	idle, err := fuse(0.5, []Observation{{Busy: false, Detector: d}})
	if err != nil {
		t.Fatal(err)
	}
	if idle != 1 {
		t.Fatalf("perfect detector idle report: posterior %v, want 1", idle)
	}
	busy, err := fuse(0.5, []Observation{{Busy: true, Detector: d}})
	if err != nil {
		t.Fatal(err)
	}
	if busy != 0 {
		t.Fatalf("perfect detector busy report: posterior %v, want 0", busy)
	}
}

// TestPosteriorConsistency: with informative detectors and many observations
// of the true state, the posterior should converge toward the truth.
func TestPosteriorConsistency(t *testing.T) {
	d := det(t, 0.3, 0.3)
	s := rng.New(4)
	f, err := NewFuser(0.571)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		f.Update(d.Sense(markov.Idle, s))
	}
	if p := f.Posterior(); p < 0.999 {
		t.Fatalf("posterior after 200 idle observations = %v, want ~1", p)
	}
}

// TestPosteriorCalibration: empirically, among channels with fused posterior
// near p, about fraction p should truly be idle. This validates Sense and
// the fusion jointly as a well-calibrated Bayesian pipeline.
func TestPosteriorCalibration(t *testing.T) {
	const eta = 0.4
	d := det(t, 0.3, 0.3)
	s := rng.New(9)
	type bucket struct{ sum, idle, n float64 }
	buckets := make(map[int]*bucket)
	for trial := 0; trial < 200000; trial++ {
		truth := markov.Idle
		if s.Bernoulli(eta) {
			truth = markov.Busy
		}
		obs := []Observation{d.Sense(truth, s), d.Sense(truth, s)}
		p, err := fuse(eta, obs)
		if err != nil {
			t.Fatal(err)
		}
		k := int(p * 10)
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
		}
		b.sum += p
		b.n++
		if truth == markov.Idle {
			b.idle++
		}
	}
	for k, b := range buckets {
		if b.n < 5000 {
			continue
		}
		predicted := b.sum / b.n
		actual := b.idle / b.n
		if math.Abs(predicted-actual) > 0.02 {
			t.Errorf("bucket %d: predicted availability %.3f, actual %.3f", k, predicted, actual)
		}
	}
}
