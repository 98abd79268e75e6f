package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d: streams with same seed diverged: %v != %v", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitIsPure(t *testing.T) {
	root := New(7)
	c1 := root.Split("child")
	// Consume randomness from the parent; a later split must be identical.
	for i := 0; i < 50; i++ {
		root.Float64()
	}
	c2 := root.Split("child")
	for i := 0; i < 100; i++ {
		if a, b := c1.Uint64(), c2.Uint64(); a != b {
			t.Fatalf("Split is not pure: draw %d differs (%d != %d)", i, a, b)
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	root := New(7)
	a := root.Split("alpha")
	b := root.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams produced %d identical draws", same)
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	root := New(3)
	seen := make(map[uint64]int)
	for i := 0; i < 64; i++ {
		v := root.SplitIndex("user", i).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("SplitIndex %d and %d produced identical first draw", prev, i)
		}
		seen[v] = i
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(99)
	const n = 200000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical mean %v, want within 0.01", p, got)
	}
}

func TestExpGainUnitMean(t *testing.T) {
	s := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.ExpGain()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpGain mean %v, want ~1", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("Normal mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Normal variance %v, want ~4", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := make([]int, n)
		for i := range p {
			p[i] = -1 // PermInto must overwrite every entry
		}
		s.PermInto(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("PermInto(len %d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestPermIntoMatchesLibraryPerm pins PermInto's documented contract: on
// identically seeded streams it returns math/rand/v2's Perm(n) and consumes
// exactly the same variates, so the two streams stay in lockstep.
func TestPermIntoMatchesLibraryPerm(t *testing.T) {
	a, b := New(99), New(99)
	for n := 0; n <= 1000; n++ {
		got := make([]int, n)
		a.PermInto(got)
		want := b.rand.Perm(n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto = %v, Perm = %v", n, got, want)
			}
		}
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("n=%d: streams diverged after the permutation (%d vs %d)", n, av, bv)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
