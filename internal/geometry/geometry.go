// Package geometry provides the 2-D spatial substrate for deployment
// scenarios: positions of base stations and users, coverage disks, and the
// overlap tests from which interference graphs are derived (paper Fig. 1,
// Fig. 2, and Fig. 5).
package geometry

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/rng"
)

// ErrBadRadius is returned for coverage radii that are not positive and
// finite.
var ErrBadRadius = errors.New("geometry: radius must be positive and finite")

// ErrBadSpacing is returned for a deployment spacing that is not finite.
var ErrBadSpacing = errors.New("geometry: spacing must be finite")

// Point is a location in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String formats the point.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Disk is a coverage area: a femtocell's service region.
type Disk struct {
	Center Point
	Radius float64
}

// NewDisk validates and builds a Disk.
func NewDisk(center Point, radius float64) (Disk, error) {
	if !(radius > 0) || math.IsInf(radius, 1) {
		return Disk{}, fmt.Errorf("%w: %v", ErrBadRadius, radius)
	}
	return Disk{Center: center, Radius: radius}, nil
}

// Contains reports whether q lies inside the disk (boundary inclusive).
func (d Disk) Contains(q Point) bool {
	return d.Center.Dist(q) <= d.Radius
}

// Overlaps reports whether two coverage disks intersect. Two FBSs with
// overlapping coverage interfere and become adjacent in the interference
// graph (paper Definition 1 and Lemma 4).
func (d Disk) Overlaps(o Disk) bool {
	return d.Center.Dist(o.Center) < d.Radius+o.Radius
}

// RandomInside draws a point uniformly inside the disk.
func (d Disk) RandomInside(s *rng.Stream) Point {
	// Uniform over the disk via sqrt-radius sampling.
	r := d.Radius * math.Sqrt(s.Float64())
	theta := 2 * math.Pi * s.Float64()
	return Point{
		X: d.Center.X + r*math.Cos(theta),
		Y: d.Center.Y + r*math.Sin(theta),
	}
}

// LineDeployment places n disks of the given radius with centers spacing
// meters apart along the x-axis starting at origin. With spacing < 2*radius
// neighbouring femtocells overlap — the paper's interfering scenario (FBS 1
// overlaps FBS 2 overlaps FBS 3, but FBS 1 and 3 do not).
func LineDeployment(origin Point, n int, spacing, radius float64) ([]Disk, error) {
	if n < 0 {
		return nil, fmt.Errorf("geometry: negative deployment size %d", n)
	}
	if math.IsNaN(spacing) || math.IsInf(spacing, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadSpacing, spacing)
	}
	disks := make([]Disk, 0, n)
	for i := 0; i < n; i++ {
		d, err := NewDisk(Point{X: origin.X + float64(i)*spacing, Y: origin.Y}, radius)
		if err != nil {
			return nil, err
		}
		disks = append(disks, d)
	}
	return disks, nil
}

// GridDeployment places disks on a rows x cols grid with the given spacing.
func GridDeployment(origin Point, rows, cols int, spacing, radius float64) ([]Disk, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("geometry: negative grid %dx%d", rows, cols)
	}
	if math.IsNaN(spacing) || math.IsInf(spacing, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadSpacing, spacing)
	}
	disks := make([]Disk, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d, err := NewDisk(Point{
				X: origin.X + float64(c)*spacing,
				Y: origin.Y + float64(r)*spacing,
			}, radius)
			if err != nil {
				return nil, err
			}
			disks = append(disks, d)
		}
	}
	return disks, nil
}
