package sensing

import (
	"errors"
	"testing"

	"femtocr/internal/rng"
)

func TestAssignRoundRobinCoverage(t *testing.T) {
	const m = 8
	counts := make([]int, m)
	for slot := 0; slot < m; slot++ {
		a := make([]int, 3)
		if err := AssignInto(a, RoundRobin, m, slot, nil); err != nil {
			t.Fatal(err)
		}
		for _, ch := range a {
			if ch < 1 || ch > m {
				t.Fatalf("channel %d out of range", ch)
			}
			counts[ch-1]++
		}
	}
	// Over M slots, round-robin visits each channel the same number of times.
	for ch, c := range counts {
		if c != 3 {
			t.Fatalf("channel %d sensed %d times over %d slots, want 3", ch+1, c, m)
		}
	}
}

func TestAssignRoundRobinRotates(t *testing.T) {
	a0, a1 := make([]int, 2), make([]int, 2)
	if err := AssignInto(a0, RoundRobin, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := AssignInto(a1, RoundRobin, 4, 1, nil); err != nil {
		t.Fatal(err)
	}
	if a0[0] == a1[0] {
		t.Fatalf("round-robin did not rotate with slot: %v vs %v", a0, a1)
	}
}

func TestAssignRandomInRange(t *testing.T) {
	s := rng.New(1)
	a := make([]int, 100)
	if err := AssignInto(a, RandomAssign, 5, 0, s); err != nil {
		t.Fatal(err)
	}
	for _, ch := range a {
		if ch < 1 || ch > 5 {
			t.Fatalf("channel %d out of range", ch)
		}
	}
}

func TestAssignStratifiedEven(t *testing.T) {
	s := rng.New(2)
	const m, k = 4, 10
	a := make([]int, k)
	if err := AssignInto(a, Stratified, m, 0, s); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m)
	for _, ch := range a {
		counts[ch-1]++
	}
	// 10 sensors over 4 channels: counts must be 3,3,2,2 in some order.
	lo, hi := k/m, (k+m-1)/m
	for ch, c := range counts {
		if c < lo || c > hi {
			t.Fatalf("stratified channel %d got %d sensors, want %d..%d", ch+1, c, lo, hi)
		}
	}
}

func TestAssignErrors(t *testing.T) {
	out := make([]int, 3)
	if err := AssignInto(out, RoundRobin, 0, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("zero channels err = %v", err)
	}
	if err := AssignInto(out, RoundRobin, -2, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("negative channels err = %v", err)
	}
	if err := AssignInto(out, RandomAssign, 4, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("random without stream err = %v", err)
	}
	if err := AssignInto(out, Stratified, 4, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("stratified without stream err = %v", err)
	}
	if err := AssignInto(out, AssignmentPolicy(0), 4, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("unknown policy err = %v", err)
	}
}

func TestAssignZeroSensors(t *testing.T) {
	if err := AssignInto(nil, RoundRobin, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" ||
		RandomAssign.String() != "random" ||
		Stratified.String() != "stratified" {
		t.Fatal("policy strings wrong")
	}
	if AssignmentPolicy(9).String() != "AssignmentPolicy(9)" {
		t.Fatalf("unknown policy string = %q", AssignmentPolicy(9).String())
	}
}

func TestAssignByUncertainty(t *testing.T) {
	busy := []float64{0.9, 0.5, 0.1, 0.45}
	// Uncertainty order: ch2 (0.5), ch4 (0.45), ch1 (0.9) vs ch3 (0.1)
	// tie at distance 0.4 broken by index (stable): ch1 then ch3.
	a := make([]int, 4)
	order := make([]int, len(busy))
	if err := AssignByUncertaintyInto(a, order, busy); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 1, 3}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("assignment %v, want %v", a, want)
		}
	}
	// More sensors than channels wrap around the ranking.
	a = make([]int, 6)
	if err := AssignByUncertaintyInto(a, order, busy); err != nil {
		t.Fatal(err)
	}
	if a[4] != 2 || a[5] != 4 {
		t.Fatalf("wrap-around wrong: %v", a)
	}
}

func TestAssignByUncertaintyErrors(t *testing.T) {
	if err := AssignByUncertaintyInto(make([]int, 2), nil, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatal("empty beliefs accepted")
	}
	if err := AssignByUncertaintyInto(make([]int, 2), make([]int, 1), []float64{0.5, 0.2}); !errors.Is(err, ErrBadAssignment) {
		t.Fatal("ranking scratch shorter than the channel count accepted")
	}
}

func TestUncertaintyPolicyFallsBackToRoundRobin(t *testing.T) {
	a, rr := make([]int, 3), make([]int, 3)
	if err := AssignInto(a, UncertaintyDriven, 4, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := AssignInto(rr, RoundRobin, 4, 1, nil); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != rr[i] {
			t.Fatal("fallback differs from round-robin")
		}
	}
	if UncertaintyDriven.String() != "uncertainty-driven" {
		t.Fatal("name wrong")
	}
}
