package spectrum

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

func paperChain(t *testing.T) markov.Chain {
	t.Helper()
	c, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewBandValidation(t *testing.T) {
	c := paperChain(t)
	cases := []struct {
		name    string
		m       int
		b0, b1  float64
		wantErr bool
	}{
		{"ok", 8, 0.3, 0.3, false},
		{"zero channels", 0, 0.3, 0.3, true},
		{"negative channels", -1, 0.3, 0.3, true},
		{"zero B0", 8, 0, 0.3, true},
		{"negative B1", 8, 0.3, -0.1, true},
		{"NaN B0", 8, math.NaN(), 0.3, true},
		{"NaN B1", 8, 0.3, math.NaN(), true},
		{"+Inf B0", 8, math.Inf(1), 0.3, true},
		{"+Inf B1", 8, 0.3, math.Inf(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewBand(tc.m, tc.b0, tc.b1, c)
			if tc.wantErr && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestBandAccessors(t *testing.T) {
	c := paperChain(t)
	b, err := NewBand(8, 0.5, 0.3, c)
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 8 || b.B0() != 0.5 || b.B1() != 0.3 {
		t.Fatalf("accessors: M=%d B0=%v B1=%v", b.M(), b.B0(), b.B1())
	}
	if got := b.Utilization(); math.Abs(got-0.4/0.7) > 1e-12 {
		t.Fatalf("Utilization() = %v", got)
	}
}

func TestOccupancyHelpers(t *testing.T) {
	o := Occupancy{markov.Idle, markov.Busy, markov.Idle}
	if !o.Idle(1) || o.Idle(2) || !o.Idle(3) {
		t.Fatal("Idle() indexing wrong (must be 1-based)")
	}
	if o.NumIdle() != 2 {
		t.Fatalf("NumIdle = %d, want 2", o.NumIdle())
	}
	cp := o.Clone()
	cp[0] = markov.Busy
	if o[0] != markov.Idle {
		t.Fatal("Clone did not copy")
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	c := paperChain(t)
	b, _ := NewBand(8, 0.3, 0.3, c)
	s1 := NewSimulator(b, rng.New(42))
	s2 := NewSimulator(b, rng.New(42))
	for i := 0; i < 200; i++ {
		o1, o2 := s1.StepInPlace(), s2.StepInPlace()
		for m := range o1 {
			if o1[m] != o2[m] {
				t.Fatalf("slot %d channel %d diverged", i, m+1)
			}
		}
	}
	if s1.Slot() != 200 {
		t.Fatalf("Slot = %d, want 200", s1.Slot())
	}
}

func TestSimulatorLongRunUtilization(t *testing.T) {
	c := paperChain(t)
	b, _ := NewBand(4, 0.3, 0.3, c)
	sim := NewSimulator(b, rng.New(7))
	busy := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		o := sim.StepInPlace()
		for m := range o {
			if o[m] == markov.Busy {
				busy[m]++
			}
		}
	}
	want := 0.4 / 0.7
	for m, cnt := range busy {
		got := float64(cnt) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("channel %d empirical utilization %v, want ~%v", m+1, got, want)
		}
	}
}

func TestSimulatorOccupancyIsCopy(t *testing.T) {
	c := paperChain(t)
	b, _ := NewBand(3, 0.3, 0.3, c)
	sim := NewSimulator(b, rng.New(1))
	o := sim.Occupancy()
	o[0] = markov.Busy
	o2 := sim.Occupancy()
	// The simulator's internal state must not have been modified through the
	// returned slice, whatever the state is: check aliasing directly.
	o2[0] = markov.Idle
	o3 := sim.Occupancy()
	if &o2[0] == &o3[0] {
		t.Fatal("Occupancy returns aliased storage")
	}
}

func TestSimulatorChannelsIndependent(t *testing.T) {
	// Adding a channel must not perturb the trajectory of channel 1,
	// thanks to per-channel split streams.
	c := paperChain(t)
	b4, _ := NewBand(4, 0.3, 0.3, c)
	b8, _ := NewBand(8, 0.3, 0.3, c)
	s4 := NewSimulator(b4, rng.New(99))
	s8 := NewSimulator(b8, rng.New(99))
	for i := 0; i < 100; i++ {
		o4, o8 := s4.StepInPlace(), s8.StepInPlace()
		for m := 0; m < 4; m++ {
			if o4[m] != o8[m] {
				t.Fatalf("slot %d: channel %d trajectory changed when band grew", i, m+1)
			}
		}
	}
}
