package geometry

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/rng"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.q.Dist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist not symmetric for %v, %v", c.p, c.q)
		}
	}
}

func TestPointString(t *testing.T) {
	p := Point{4, 1}
	if p.String() != "(4.0, 1.0)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestNewDiskValidation(t *testing.T) {
	if _, err := NewDisk(Point{}, 0); !errors.Is(err, ErrBadRadius) {
		t.Fatal("zero radius accepted")
	}
	if _, err := NewDisk(Point{}, -1); !errors.Is(err, ErrBadRadius) {
		t.Fatal("negative radius accepted")
	}
	if _, err := NewDisk(Point{}, math.NaN()); !errors.Is(err, ErrBadRadius) {
		t.Fatal("NaN radius accepted")
	}
	if _, err := NewDisk(Point{}, math.Inf(1)); !errors.Is(err, ErrBadRadius) {
		t.Fatal("infinite radius accepted")
	}
	if _, err := NewDisk(Point{}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestDiskContains(t *testing.T) {
	d, _ := NewDisk(Point{0, 0}, 5)
	if !d.Contains(Point{3, 4}) {
		t.Fatal("boundary point should be contained")
	}
	if !d.Contains(Point{0, 0}) {
		t.Fatal("center should be contained")
	}
	if d.Contains(Point{3.1, 4}) {
		t.Fatal("outside point should not be contained")
	}
}

func TestDiskOverlaps(t *testing.T) {
	a, _ := NewDisk(Point{0, 0}, 5)
	b, _ := NewDisk(Point{8, 0}, 5)  // centers 8 apart, radii sum 10
	c, _ := NewDisk(Point{10, 0}, 5) // tangent: not overlapping (open)
	d, _ := NewDisk(Point{20, 0}, 5)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b must overlap")
	}
	if a.Overlaps(c) {
		t.Fatal("tangent disks must not count as overlapping")
	}
	if a.Overlaps(d) {
		t.Fatal("distant disks must not overlap")
	}
}

func TestRandomInsideStaysInside(t *testing.T) {
	d, _ := NewDisk(Point{10, -5}, 7)
	s := rng.New(3)
	for i := 0; i < 10000; i++ {
		p := d.RandomInside(s)
		if !d.Contains(p) {
			t.Fatalf("RandomInside produced %v outside disk", p)
		}
	}
}

func TestRandomInsideUniform(t *testing.T) {
	// The inner disk of half radius must receive ~1/4 of the points.
	d, _ := NewDisk(Point{0, 0}, 10)
	inner, _ := NewDisk(Point{0, 0}, 5)
	s := rng.New(4)
	const n = 100000
	in := 0
	for i := 0; i < n; i++ {
		if inner.Contains(d.RandomInside(s)) {
			in++
		}
	}
	got := float64(in) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("inner-disk fraction %v, want ~0.25 (uniformity)", got)
	}
}

func TestLineDeploymentOverlapStructure(t *testing.T) {
	// Spacing 15 with radius 10: adjacent overlap (15 < 20), second
	// neighbours do not (30 >= 20). This is the paper's Fig. 5 topology.
	disks, err := LineDeployment(Point{}, 3, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(disks) != 3 {
		t.Fatalf("got %d disks", len(disks))
	}
	if !disks[0].Overlaps(disks[1]) || !disks[1].Overlaps(disks[2]) {
		t.Fatal("adjacent femtocells must overlap")
	}
	if disks[0].Overlaps(disks[2]) {
		t.Fatal("FBS 1 and 3 must not overlap")
	}
}

func TestLineDeploymentErrors(t *testing.T) {
	if _, err := LineDeployment(Point{}, -1, 10, 5); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := LineDeployment(Point{}, 2, 10, 0); !errors.Is(err, ErrBadRadius) {
		t.Fatal("bad radius accepted")
	}
	if _, err := LineDeployment(Point{}, 2, 10, math.Inf(1)); !errors.Is(err, ErrBadRadius) {
		t.Fatal("infinite radius accepted")
	}
	for _, spacing := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := LineDeployment(Point{}, 3, spacing, 5); !errors.Is(err, ErrBadSpacing) {
			t.Errorf("line spacing %v: err = %v, want ErrBadSpacing", spacing, err)
		}
		if _, err := GridDeployment(Point{}, 2, 2, spacing, 5); !errors.Is(err, ErrBadSpacing) {
			t.Errorf("grid spacing %v: err = %v, want ErrBadSpacing", spacing, err)
		}
	}
	disks, err := LineDeployment(Point{}, 0, 10, 5)
	if err != nil || len(disks) != 0 {
		t.Fatalf("empty deployment: %v, %v", disks, err)
	}
}

func TestGridDeployment(t *testing.T) {
	disks, err := GridDeployment(Point{1, 2}, 2, 3, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(disks) != 6 {
		t.Fatalf("got %d disks, want 6", len(disks))
	}
	// Last disk center at origin + (2*10, 1*10).
	want := Point{21, 12}
	if disks[5].Center != want {
		t.Fatalf("last center %v, want %v", disks[5].Center, want)
	}
	if _, err := GridDeployment(Point{}, -1, 2, 10, 4); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestDistTriangleInequality(t *testing.T) {
	err := quick.Check(func(ax, ay, bx, by, cx, cy int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
