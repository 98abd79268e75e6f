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
		if err := AssignInto(a, make([]int, m), RoundRobin, slot, nil); err != nil {
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
	if err := AssignInto(a0, make([]int, 4), RoundRobin, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := AssignInto(a1, make([]int, 4), RoundRobin, 1, nil); err != nil {
		t.Fatal(err)
	}
	if a0[0] == a1[0] {
		t.Fatalf("round-robin did not rotate with slot: %v vs %v", a0, a1)
	}
}

func TestAssignRandomInRange(t *testing.T) {
	s := rng.New(1)
	a := make([]int, 100)
	if err := AssignInto(a, make([]int, 5), RandomAssign, 0, s); err != nil {
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
	if err := AssignInto(a, make([]int, m), Stratified, 0, s); err != nil {
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
	out, perm := make([]int, 3), make([]int, 4)
	if err := AssignInto(out, nil, RoundRobin, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("zero channels err = %v", err)
	}
	if err := AssignInto(out, perm, RandomAssign, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("random without stream err = %v", err)
	}
	if err := AssignInto(out, perm, Stratified, 0, nil); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("stratified without stream err = %v", err)
	}
	// 4 selected a belief-ranked policy that no entry point could select.
	for _, p := range []AssignmentPolicy{0, 4} {
		if err := AssignInto(out, perm, p, 0, nil); !errors.Is(err, ErrBadAssignment) {
			t.Fatalf("unknown policy %d err = %v", int(p), err)
		}
	}
}

// TestAssignStratifiedIgnoresPermContents: the caller's permutation buffer
// is scratch, so what it held before never changes the assignment.
func TestAssignStratifiedIgnoresPermContents(t *testing.T) {
	const m, k = 5, 12
	clean, dirty := make([]int, k), make([]int, k)
	if err := AssignInto(clean, make([]int, m), Stratified, 0, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	perm := []int{9, -1, 4, 4, 7}
	if err := AssignInto(dirty, perm, Stratified, 0, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("stale perm changed the assignment: %v vs %v", dirty, clean)
		}
	}
}

func TestAssignZeroSensors(t *testing.T) {
	if err := AssignInto(nil, make([]int, 4), RoundRobin, 0, nil); err != nil {
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
