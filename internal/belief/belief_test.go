package belief

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
)

func testBand(t *testing.T) *spectrum.Band {
	t.Helper()
	chain, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	band, err := spectrum.NewBand(4, 0.3, 0.3, chain)
	if err != nil {
		t.Fatal(err)
	}
	return band
}

func TestTrackerStartsStationary(t *testing.T) {
	tr := NewTracker(testBand(t))
	for ch := 1; ch <= 4; ch++ {
		b, err := tr.PriorBusy(ch)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b-0.4/0.7) > 1e-12 {
			t.Fatalf("channel %d prior %v, want stationary", ch, b)
		}
	}
}

func TestPredictFixedPointIsStationary(t *testing.T) {
	tr := NewTracker(testBand(t))
	// The stationary distribution is invariant under Predict.
	for i := 0; i < 50; i++ {
		tr.Predict()
	}
	b, err := tr.PriorBusy(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.4/0.7) > 1e-12 {
		t.Fatalf("prior drifted to %v", b)
	}
}

func TestObserveThenPredictMovesTowardStationary(t *testing.T) {
	tr := NewTracker(testBand(t))
	if err := tr.Observe(1, 1.0); err != nil { // certainly idle now
		t.Fatal(err)
	}
	b, _ := tr.PriorBusy(1)
	if b != 0 {
		t.Fatalf("post-observation busy = %v, want 0", b)
	}
	tr.Predict()
	b, _ = tr.PriorBusy(1)
	if math.Abs(b-0.4) > 1e-12 { // idle -> busy with P01
		t.Fatalf("after one slot busy = %v, want P01 = 0.4", b)
	}
	// Repeated prediction converges back to stationarity.
	for i := 0; i < 200; i++ {
		tr.Predict()
	}
	b, _ = tr.PriorBusy(1)
	if math.Abs(b-0.4/0.7) > 1e-9 {
		t.Fatalf("prior %v did not converge to stationary", b)
	}
}

func TestObserveClampsAndValidates(t *testing.T) {
	tr := NewTracker(testBand(t))
	if err := tr.Observe(0, 0.5); !errors.Is(err, ErrBadChannel) {
		t.Fatal("channel 0 accepted")
	}
	if err := tr.Observe(5, 0.5); !errors.Is(err, ErrBadChannel) {
		t.Fatal("channel 5 accepted")
	}
	if _, err := tr.PriorBusy(9); !errors.Is(err, ErrBadChannel) {
		t.Fatal("PriorBusy(9) accepted")
	}
	if err := tr.Observe(1, 1.7); err != nil {
		t.Fatal(err)
	}
	if b, _ := tr.PriorBusy(1); b != 0 {
		t.Fatalf("availability above 1 should clamp busy to 0, got %v", b)
	}
	if err := tr.Observe(1, -0.3); err != nil {
		t.Fatal(err)
	}
	if b, _ := tr.PriorBusy(1); b != 1 {
		t.Fatalf("availability below 0 should clamp busy to 1, got %v", b)
	}
}

// TestFilterBeatsStationaryPrior: against a simulated channel, the filtered
// prior predicts the true state strictly better (lower Brier score) than
// the stationary prior, because occupancy is temporally correlated.
func TestFilterBeatsStationaryPrior(t *testing.T) {
	band := testBand(t)
	tr := NewTracker(band)
	det, err := sensing.NewDetector(0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(42)
	sim := spectrum.NewSimulator(band, root.Split("occ"))
	senseStream := root.Split("sense")

	var brierFiltered, brierStationary float64
	const slots = 20000
	eta := band.Utilization()
	for s := 0; s < slots; s++ {
		truth := sim.StepInPlace()
		tr.Predict()
		for ch := 1; ch <= band.M(); ch++ {
			prior, err := tr.PriorBusy(ch)
			if err != nil {
				t.Fatal(err)
			}
			y := 0.0
			if truth[ch-1] == markov.Busy {
				y = 1
			}
			brierFiltered += (prior - y) * (prior - y)
			brierStationary += (eta - y) * (eta - y)

			// Sense and close the loop.
			fu, err := sensing.NewFuser(prior)
			if err != nil {
				t.Fatal(err)
			}
			fu.Update(det.Sense(truth[ch-1], senseStream))
			fu.Update(det.Sense(truth[ch-1], senseStream))
			if err := tr.Observe(ch, fu.Posterior()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if brierFiltered >= brierStationary {
		t.Fatalf("filtered Brier %v not better than stationary %v",
			brierFiltered/slots, brierStationary/slots)
	}
	improvement := 1 - brierFiltered/brierStationary
	if improvement < 0.02 {
		t.Fatalf("filter improvement %.3f suspiciously small", improvement)
	}
	t.Logf("Brier improvement from belief filtering: %.1f%%", improvement*100)
}

// TestFilterStaysCalibrated: predicted busy probabilities match realized
// busy frequencies bucket by bucket.
func TestFilterStaysCalibrated(t *testing.T) {
	band := testBand(t)
	tr := NewTracker(band)
	det, err := sensing.NewDetector(0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(7)
	sim := spectrum.NewSimulator(band, root.Split("occ"))
	senseStream := root.Split("sense")
	type bucket struct{ sum, busy, n float64 }
	buckets := make(map[int]*bucket)
	for s := 0; s < 50000; s++ {
		truth := sim.StepInPlace()
		tr.Predict()
		for ch := 1; ch <= band.M(); ch++ {
			prior, _ := tr.PriorBusy(ch)
			k := int(prior * 10)
			b := buckets[k]
			if b == nil {
				b = &bucket{}
				buckets[k] = b
			}
			b.sum += prior
			b.n++
			if truth[ch-1] == markov.Busy {
				b.busy++
			}
			fu, err := sensing.NewFuser(prior)
			if err != nil {
				t.Fatal(err)
			}
			fu.Update(det.Sense(truth[ch-1], senseStream))
			if err := tr.Observe(ch, fu.Posterior()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, b := range buckets {
		if b.n < 4000 {
			continue
		}
		predicted := b.sum / b.n
		actual := b.busy / b.n
		if math.Abs(predicted-actual) > 0.02 {
			t.Errorf("bucket %d: predicted busy %.3f, realized %.3f", k, predicted, actual)
		}
	}
}
