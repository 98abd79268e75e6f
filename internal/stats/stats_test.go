package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Unbiased sample variance of this classic data set is 32/7.
	if want := 32.0 / 7.0; !almostEqual(r.Variance(), want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", r.Variance(), want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 || r.N() != 0 {
		t.Fatal("zero-value Running must report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Fatalf("variance of single sample = %v, want 0", r.Variance())
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Fatal("min/max of single sample wrong")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64, nA, nB uint8) bool {
		s := rng.New(seed)
		a := make([]float64, int(nA)+1)
		b := make([]float64, int(nB)+1)
		for i := range a {
			a[i] = s.Normal(10, 3)
		}
		for i := range b {
			b[i] = s.Normal(-5, 7)
		}
		var ra, rb, all Running
		ra.AddAll(a)
		rb.AddAll(b)
		all.AddAll(a)
		all.AddAll(b)
		ra.Merge(&rb)
		return ra.N() == all.N() &&
			almostEqual(ra.Mean(), all.Mean(), 1e-9) &&
			almostEqual(ra.Variance(), all.Variance(), 1e-9) &&
			ra.Min() == all.Min() && ra.Max() == all.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a != before {
		t.Fatal("merging empty accumulator changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || !almostEqual(b.Mean(), 2, 1e-12) {
		t.Fatal("merging into empty accumulator failed")
	}
}

func TestSummarizeTenRuns(t *testing.T) {
	// The paper averages 10 runs; df=9 gives t=2.262.
	xs := []float64{30, 31, 32, 33, 34, 35, 36, 37, 38, 39}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 {
		t.Fatalf("N = %d, want 10", s.N)
	}
	if !almostEqual(s.Mean, 34.5, 1e-12) {
		t.Fatalf("Mean = %v, want 34.5", s.Mean)
	}
	wantHW := 2.262 * s.StdDev / math.Sqrt(10)
	if !almostEqual(s.HalfWidth, wantHW, 1e-9) {
		t.Fatalf("HalfWidth = %v, want %v", s.HalfWidth, wantHW)
	}
	if !(s.Lo() < s.Mean && s.Mean < s.Hi()) {
		t.Fatal("confidence interval does not bracket the mean")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if s.HalfWidth != 0 {
		t.Fatalf("single-sample half-width = %v, want 0", s.HalfWidth)
	}
}

func TestTCritical(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {9, 2.262}, {30, 2.042}, {31, 1.96}, {1000, 1.96}, {0, 0},
	}
	for _, c := range cases {
		if got := tCritical95(c.df); got != c.want {
			t.Errorf("tCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, n uint8) bool {
		s := rng.New(seed)
		xs := make([]float64, int(n)+2)
		for i := range xs {
			xs[i] = s.Normal(0, 1)
		}
		sum, err := Summarize(xs)
		if err != nil {
			return false
		}
		var r Running
		r.AddAll(xs)
		// The CI must always bracket the mean and lie within [min, max]
		// padded by the half-width.
		return sum.Lo() <= sum.Mean && sum.Mean <= sum.Hi() &&
			sum.Mean >= r.Min() && sum.Mean <= r.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 0 {
		t.Fatal("empty index")
	}
	if JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("all-zero index")
	}
	if got := JainIndex([]float64{5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("equal shares index %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("monopolized index %v, want 1/4", got)
	}
	// More balanced vectors score higher.
	if JainIndex([]float64{3, 3, 2}) <= JainIndex([]float64{6, 1, 1}) {
		t.Fatal("balance ordering violated")
	}
}
