package netmodel

import (
	"fmt"
	"math"

	"femtocr/internal/geometry"
	"femtocr/internal/rng"
	"femtocr/internal/video"
)

// TopologyKind selects a deployment layout for NewNetwork.
type TopologyKind int

const (
	// KindSingle is the paper's §V-A scenario: one FBS at the origin.
	KindSingle TopologyKind = iota + 1
	// KindNonInterferingLine places FBSs on a line spaced 4R apart, so no
	// coverage overlaps and the interference graph is edgeless (Table II).
	KindNonInterferingLine
	// KindInterferingPath places FBSs on a line spaced 1.5R apart, so
	// adjacent coverage overlaps and the interference graph is the path of
	// Fig. 5.
	KindInterferingPath
	// KindMetroGrid tiles a city with Rows x Cols blocks. Each block holds
	// FBSPerBlock femtocells in a 1.5R-spaced row (the paper's interfering
	// path), and blocks are separated by streets wide enough that coverage
	// never crosses a block boundary: the interference graph decomposes
	// into exactly Rows*Cols path components.
	KindMetroGrid
	// KindMetroPoisson scatters FBSs centers uniformly at random over a
	// Side x Side area. Interference clusters — the connected components
	// of the coverage-overlap graph — emerge from the spatial density.
	KindMetroPoisson
)

// String names the kind for diagnostics.
func (k TopologyKind) String() string {
	switch k {
	case KindSingle:
		return "single"
	case KindNonInterferingLine:
		return "noninterfering-line"
	case KindInterferingPath:
		return "interfering-path"
	case KindMetroGrid:
		return "metro-grid"
	case KindMetroPoisson:
		return "metro-poisson"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// DefaultUsersPerFBS is the generated per-FBS video load when a metro spec
// leaves UsersPerFBS zero — three streams per cell, matching the paper's
// per-FBS load in §V.
const DefaultUsersPerFBS = 3

// defaultPoissonAreaPerFBS is the square meters of city allotted to each
// FBS when a Poisson spec leaves Side zero. At the paper's 12 m
// coverage radius this density (~555 FBS/km^2) sits near the percolation
// point of the overlap graph, producing a realistic mix of isolated cells
// and small interference clusters.
const defaultPoissonAreaPerFBS = 1800.0

// TopologySpec declares a deployment for NewNetwork: a layout kind plus
// either an explicit per-FBS video list or a generated per-FBS load.
// The zero value is invalid; use the *Spec constructors for common cases.
type TopologySpec struct {
	// Kind selects the layout.
	Kind TopologyKind

	// Videos, when non-nil, explicitly lists the sequences streamed by each
	// FBS (one inner slice per FBS, one user per sequence). Its length then
	// fixes the FBS count for the line kinds; the metro kinds require the
	// length to match their generated cell count.
	Videos [][]video.Sequence

	// UsersPerFBS is the generated load when Videos is nil: that many users
	// per FBS, each streaming the next of the six standard CIF presets
	// (video.StandardSequences) in rotation. Zero means DefaultUsersPerFBS;
	// negative is invalid.
	UsersPerFBS int

	// FBSs is the cell count for KindMetroPoisson, and for the line kinds
	// when Videos is nil.
	FBSs int
	// Rows and Cols are the city-block grid dimensions for KindMetroGrid.
	Rows, Cols int
	// FBSPerBlock is the femtocells per city block for KindMetroGrid; zero
	// means 3 (the paper's Fig. 5 path replicated per block); negative is
	// invalid.
	FBSPerBlock int
	// Side is the side of the square KindMetroPoisson area in meters; zero
	// means an automatic area of defaultPoissonAreaPerFBS per FBS. Negative,
	// infinite and NaN sides are invalid.
	Side float64
}

// SingleSpec declares the single-FBS layout streaming the given sequences.
func SingleSpec(videos []video.Sequence) TopologySpec {
	return TopologySpec{Kind: KindSingle, Videos: [][]video.Sequence{videos}}
}

// PaperSingleSpec declares the exact §V-A scenario: one FBS streaming Bus,
// Mobile and Harbor to three users.
func PaperSingleSpec() TopologySpec {
	trio := video.PaperTrio()
	return SingleSpec(trio[:])
}

// NonInterferingSpec declares disjoint-coverage femtocells, one video group
// per FBS.
func NonInterferingSpec(videosPerFBS [][]video.Sequence) TopologySpec {
	return TopologySpec{Kind: KindNonInterferingLine, Videos: videosPerFBS}
}

// InterferingPathSpec declares the §V-B path layout, one video group per
// FBS.
func InterferingPathSpec(videosPerFBS [][]video.Sequence) TopologySpec {
	return TopologySpec{Kind: KindInterferingPath, Videos: videosPerFBS}
}

// PaperInterferingSpec declares the exact §V-B scenario: three FBSs on the
// Fig. 5 path, each streaming the Bus/Mobile/Harbor trio.
func PaperInterferingSpec() TopologySpec {
	trio := video.PaperTrio()
	return InterferingPathSpec([][]video.Sequence{trio[:], trio[:], trio[:]})
}

// MetroGridSpec declares a rows x cols city-block grid with the default
// three-FBS block and usersPerFBS generated streams per cell (0 means the
// default load).
func MetroGridSpec(rows, cols, usersPerFBS int) TopologySpec {
	return TopologySpec{Kind: KindMetroGrid, Rows: rows, Cols: cols, UsersPerFBS: usersPerFBS}
}

// MetroPoissonSpec declares fbss femtocells scattered uniformly over an
// automatically sized area, with usersPerFBS generated streams per cell
// (0 means the default load).
func MetroPoissonSpec(fbss, usersPerFBS int) TopologySpec {
	return TopologySpec{Kind: KindMetroPoisson, FBSs: fbss, UsersPerFBS: usersPerFBS}
}

// NumFBS returns the number of femtocells the spec deploys, or an error
// for inconsistent specs.
func (s TopologySpec) NumFBS() (int, error) {
	if s.UsersPerFBS < 0 {
		return 0, fmt.Errorf("%w: %d users per FBS", ErrBadNetwork, s.UsersPerFBS)
	}
	if s.FBSPerBlock < 0 {
		return 0, fmt.Errorf("%w: %d FBSs per block", ErrBadNetwork, s.FBSPerBlock)
	}
	if !(s.Side >= 0 && s.Side <= math.MaxFloat64) {
		return 0, fmt.Errorf("%w: metro side %v m", ErrBadNetwork, s.Side)
	}
	switch s.Kind {
	case KindSingle:
		if s.Videos != nil && len(s.Videos) != 1 {
			return 0, fmt.Errorf("%w: single-FBS spec with %d video groups", ErrBadNetwork, len(s.Videos))
		}
		return 1, nil
	case KindNonInterferingLine, KindInterferingPath:
		if s.Videos != nil {
			return len(s.Videos), nil
		}
		if s.FBSs < 1 {
			return 0, fmt.Errorf("%w: %s spec needs Videos or FBSs >= 1", ErrBadNetwork, s.Kind)
		}
		return s.FBSs, nil
	case KindMetroGrid:
		if s.Rows < 1 || s.Cols < 1 {
			return 0, fmt.Errorf("%w: metro grid %dx%d blocks", ErrBadNetwork, s.Rows, s.Cols)
		}
		return s.Rows * s.Cols * s.blockSize(), nil
	case KindMetroPoisson:
		if s.FBSs < 1 {
			return 0, fmt.Errorf("%w: metro poisson with %d FBSs", ErrBadNetwork, s.FBSs)
		}
		return s.FBSs, nil
	default:
		return 0, fmt.Errorf("%w: unknown topology kind %d", ErrBadNetwork, int(s.Kind))
	}
}

// blockSize returns the per-block FBS count with its default applied.
func (s TopologySpec) blockSize() int {
	if s.FBSPerBlock > 0 {
		return s.FBSPerBlock
	}
	return 3
}

// videoLoad resolves the per-FBS video lists for n femtocells: the explicit
// Videos when given (validated against n), else UsersPerFBS sequences per
// FBS drawn from the standard presets in rotation. The rotation offset
// advances with the FBS index so neighboring cells carry different mixes.
func (s TopologySpec) videoLoad(n int) ([][]video.Sequence, error) {
	if s.Videos != nil {
		if len(s.Videos) != n {
			return nil, fmt.Errorf("%w: %d video groups for %d femtocells", ErrBadNetwork, len(s.Videos), n)
		}
		return s.Videos, nil
	}
	perFBS := s.UsersPerFBS
	if perFBS == 0 {
		perFBS = DefaultUsersPerFBS
	}
	pool := video.StandardSequences()
	out := make([][]video.Sequence, n)
	for i := 0; i < n; i++ {
		group := make([]video.Sequence, perFBS)
		for u := 0; u < perFBS; u++ {
			group[u] = pool[(i*perFBS+u)%len(pool)]
		}
		out[i] = group
	}
	return out, nil
}

// disks lays out the spec's coverage disks. Poisson centers are drawn from
// the dedicated "netmodel/topology" stream of the config seed, so layout
// randomness never perturbs the per-FBS placement streams users are drawn
// from — a generated metro scenario stays reproducible from Config.Seed
// alone.
func (s TopologySpec) disks(cfg Config, n int) ([]geometry.Disk, error) {
	r := femtoRadius
	switch s.Kind {
	case KindSingle:
		d, err := geometry.NewDisk(geometry.Point{}, r)
		if err != nil {
			return nil, err
		}
		return []geometry.Disk{d}, nil
	case KindNonInterferingLine:
		return geometry.LineDeployment(geometry.Point{}, n, 4*r, r)
	case KindInterferingPath:
		return geometry.LineDeployment(geometry.Point{}, n, 1.5*r, r)
	case KindMetroGrid:
		block := s.blockSize()
		// Streets must keep adjacent blocks' nearest disks > 2R apart in
		// both axes so coverage never crosses a block boundary.
		blockWidth := float64(block-1) * 1.5 * r
		pitchX := blockWidth + 4*r
		pitchY := 4 * r
		disks := make([]geometry.Disk, 0, n)
		for row := 0; row < s.Rows; row++ {
			for col := 0; col < s.Cols; col++ {
				origin := geometry.Point{X: float64(col) * pitchX, Y: float64(row) * pitchY}
				blockDisks, err := geometry.LineDeployment(origin, block, 1.5*r, r)
				if err != nil {
					return nil, err
				}
				disks = append(disks, blockDisks...)
			}
		}
		return disks, nil
	case KindMetroPoisson:
		side := s.Side
		if side == 0 {
			side = poissonSide(n)
		}
		topo := rng.New(cfg.Seed).Split("netmodel/topology")
		disks := make([]geometry.Disk, 0, n)
		for i := 0; i < n; i++ {
			center := geometry.Point{X: side * topo.Float64(), Y: side * topo.Float64()}
			d, err := geometry.NewDisk(center, r)
			if err != nil {
				return nil, err
			}
			disks = append(disks, d)
		}
		return disks, nil
	default:
		return nil, fmt.Errorf("%w: unknown topology kind %d", ErrBadNetwork, int(s.Kind))
	}
}

// poissonSide returns the side of the automatic square area for n FBSs.
func poissonSide(n int) float64 {
	return math.Sqrt(float64(n) * defaultPoissonAreaPerFBS)
}

// NewNetwork assembles a network from a configuration and a topology
// specification. It is the single entry point behind every deployment
// scenario: the paper's single-FBS and Fig. 5 layouts, disjoint-coverage
// lines, and the generated metro-scale grids and Poisson scatters whose
// interference graphs decompose into shards for sim.RunSharded.
func NewNetwork(cfg Config, spec TopologySpec) (*Network, error) {
	n, err := spec.NumFBS()
	if err != nil {
		return nil, err
	}
	videos, err := spec.videoLoad(n)
	if err != nil {
		return nil, err
	}
	disks, err := spec.disks(cfg, n)
	if err != nil {
		return nil, err
	}
	return build(cfg, disks, videos)
}
