package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/rng"
)

func mustChain(t *testing.T, p01, p10 float64) Chain {
	t.Helper()
	c, err := NewChain(p01, p10)
	if err != nil {
		t.Fatalf("NewChain(%v, %v): %v", p01, p10, err)
	}
	return c
}

func TestNewChainValidation(t *testing.T) {
	cases := []struct {
		p01, p10 float64
		wantErr  error
	}{
		{0.4, 0.3, nil},
		{0, 1, nil},
		{1, 0, nil},
		{-0.1, 0.3, ErrInvalidProbability},
		{0.4, 1.1, ErrInvalidProbability},
		{0, 0, ErrDegenerateChain},
		{math.NaN(), 0.3, ErrInvalidProbability},
		{0.4, math.NaN(), ErrInvalidProbability},
	}
	for _, c := range cases {
		_, err := NewChain(c.p01, c.p10)
		if c.wantErr == nil && err != nil {
			t.Errorf("NewChain(%v,%v) unexpected error %v", c.p01, c.p10, err)
		}
		if c.wantErr != nil && !errors.Is(err, c.wantErr) {
			t.Errorf("NewChain(%v,%v) err = %v, want %v", c.p01, c.p10, err, c.wantErr)
		}
	}
}

func TestPaperUtilization(t *testing.T) {
	// The paper's default: P01 = 0.4, P10 = 0.3 => eta = 0.4/0.7.
	c := mustChain(t, 0.4, 0.3)
	want := 0.4 / 0.7
	if got := c.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
}

func TestFromUtilization(t *testing.T) {
	for _, eta := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		c, err := FromUtilization(eta, 0.3)
		if err != nil {
			t.Fatalf("FromUtilization(%v, 0.3): %v", eta, err)
		}
		if got := c.Utilization(); math.Abs(got-eta) > 1e-12 {
			t.Errorf("eta = %v, got %v", eta, got)
		}
		if c.P10() != 0.3 {
			t.Errorf("P10 changed: %v", c.P10())
		}
	}
}

func TestFromUtilizationRejectsInfeasible(t *testing.T) {
	// eta = 0.9 with p10 = 0.3 needs p01 = 2.7 > 1.
	if _, err := FromUtilization(0.9, 0.3); !errors.Is(err, ErrInvalidProbability) {
		t.Fatalf("err = %v, want ErrInvalidProbability", err)
	}
	if _, err := FromUtilization(1.0, 0.3); !errors.Is(err, ErrInvalidProbability) {
		t.Fatalf("eta=1 err = %v, want ErrInvalidProbability", err)
	}
	if _, err := FromUtilization(-0.1, 0.3); !errors.Is(err, ErrInvalidProbability) {
		t.Fatalf("eta<0 err = %v, want ErrInvalidProbability", err)
	}
	if _, err := FromUtilization(math.NaN(), 0.3); !errors.Is(err, ErrInvalidProbability) {
		t.Fatalf("eta=NaN err = %v, want ErrInvalidProbability", err)
	}
	if _, err := FromUtilization(0.5, math.NaN()); !errors.Is(err, ErrInvalidProbability) {
		t.Fatalf("P10=NaN err = %v, want ErrInvalidProbability", err)
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || Busy.String() != "busy" {
		t.Fatal("state strings wrong")
	}
	if State(7).String() != "State(7)" {
		t.Fatalf("unknown state string = %q", State(7).String())
	}
}

// trajectory draws n states of c through SampleStationary and Next, the
// two calls the spectrum simulator makes.
func trajectory(c Chain, n int, s *rng.Stream) []State {
	out := make([]State, n)
	out[0] = c.SampleStationary(s)
	for i := 1; i < n; i++ {
		out[i] = c.Next(out[i-1], s)
	}
	return out
}

func TestSimulateMatchesStationary(t *testing.T) {
	c := mustChain(t, 0.4, 0.3)
	busy := 0
	for _, st := range trajectory(c, 200000, rng.New(1)) {
		if st == Busy {
			busy++
		}
	}
	got := float64(busy) / 200000
	if want := c.Utilization(); math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical utilization %v, want ~%v", got, want)
	}
}

// TestMeanRunLengths checks Next's two transition frequencies: idle and
// busy sojourns are geometric, with means 1/P01 and 1/P10.
func TestMeanRunLengths(t *testing.T) {
	c := mustChain(t, 0.4, 0.25)
	var runs, total [2]int
	run := 0
	trace := trajectory(c, 300000, rng.New(2))
	for i, st := range trace {
		run++
		if i+1 < len(trace) && trace[i+1] != st {
			runs[st]++
			total[st] += run
			run = 0
		}
	}
	for st, want := range [2]float64{1 / c.P01(), 1 / c.P10()} {
		if got := float64(total[st]) / float64(runs[st]); math.Abs(got-want)/want > 0.02 {
			t.Errorf("mean %v run %v, want ~%v", State(st), got, want)
		}
	}
}

// TestFitRecoversParameters fits P01 and P10 to a long trajectory by
// maximum likelihood (transition counting): Next must realize both
// transition probabilities, not just their ratio, which is all the
// stationary utilization checks.
func TestFitRecoversParameters(t *testing.T) {
	c := mustChain(t, 0.4, 0.3)
	var from, flips [2]int
	trace := trajectory(c, 500000, rng.New(3))
	for i := 1; i < len(trace); i++ {
		from[trace[i-1]]++
		if trace[i] != trace[i-1] {
			flips[trace[i-1]]++
		}
	}
	p01 := float64(flips[Idle]) / float64(from[Idle])
	p10 := float64(flips[Busy]) / float64(from[Busy])
	if math.Abs(p01-0.4) > 0.01 || math.Abs(p10-0.3) > 0.01 {
		t.Fatalf("fitted (P01, P10) = (%v, %v), want ~(0.4, 0.3)", p01, p10)
	}
}

func TestNextDeterministicEdges(t *testing.T) {
	s := rng.New(1)
	alwaysFlip := mustChain(t, 1, 1)
	if alwaysFlip.Next(Idle, s) != Busy || alwaysFlip.Next(Busy, s) != Idle {
		t.Fatal("chain with P01=P10=1 must alternate")
	}
	sticky := mustChain(t, 0, 1)
	if sticky.Next(Idle, s) != Idle {
		t.Fatal("chain with P01=0 must stay idle")
	}
}

func TestUtilizationIsStationaryProperty(t *testing.T) {
	// pi * P = pi for the stationary vector.
	err := quick.Check(func(a, b uint8) bool {
		p01 := float64(a%100+1) / 101
		p10 := float64(b%100+1) / 101
		c, err := NewChain(p01, p10)
		if err != nil {
			return false
		}
		busy := c.Utilization()
		idle := 1 - busy
		nextIdle := idle*(1-p01) + busy*p10
		nextBusy := idle*p01 + busy*(1-p10)
		return math.Abs(nextIdle-idle) < 1e-12 && math.Abs(nextBusy-busy) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
