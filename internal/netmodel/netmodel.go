// Package netmodel assembles the paper's femtocell CR network (§III-A,
// Fig. 1): one MBS on the common channel, N FBSs opportunistically using M
// licensed channels, and K CR users each associated with the nearest FBS and
// streaming one MGS video. It provides the deployment scenarios used in the
// evaluation (§V): a single FBS, multiple non-interfering FBSs, and the
// three-FBS interfering path of Fig. 5.
package netmodel

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/fading"
	"femtocr/internal/geometry"
	"femtocr/internal/igraph"
	"femtocr/internal/markov"
	"femtocr/internal/ofdm"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
	"femtocr/internal/video"
)

// ErrBadNetwork is returned when a network fails validation.
var ErrBadNetwork = errors.New("netmodel: invalid network")

// The OFDM PHY's fixed parameters (Config.OFDMSubcarriers): the
// adjacent-subcarrier amplitude correlation and the EESM calibration factor.
const (
	ofdmCorrelation = 0.5
	ofdmBetaDB      = 5
)

// gopSize is the GOP length in frames (16 in the paper).
const gopSize = 16

// The radio calibration behind every link's success probability (eq. (8)),
// which the paper does not specify (DESIGN §2). Links are calibrated by the
// mean SINR a user sees at the nominal distance, then adjusted per user by
// log-distance path loss relative to that nominal distance and by
// log-normal shadowing. These are variables, not constants, so products
// such as 0.7*femtoRadius round at run time: a constant expression would
// fold exactly and land one ulp away from the placements every result was
// generated with.
var (
	mbsMeanSINRdB = 10.0  // distant macro downlink: SINR at mbsDistance
	fbsMeanSINRdB = 16.0  // short femto downlink: SINR at 0.7x femtoRadius
	thresholdDB   = 5.0   // SINR decoding threshold H of eq. (8)
	shadowStdDB   = 6.0   // per-link log-normal shadowing, dB
	pathLossExp   = 3.0   // log-distance path-loss exponent
	femtoRadius   = 12.0  // femtocell coverage radius, m
	mbsDistance   = 800.0 // distance from the MBS to the femtocell cluster, m
)

// User is one CR subscriber: a position, a serving FBS, a video stream, and
// the two wireless links it can receive on.
type User struct {
	ID      int // global index, 0-based
	FBS     int // serving femtocell, 1-based
	Pos     geometry.Point
	Seq     video.Sequence
	MBSLink fading.Link // downlink from the MBS on the common channel
	FBSLink fading.Link // downlink from the serving FBS on licensed channels
}

// Network is a fully specified femtocell CR network scenario.
type Network struct {
	Band     *spectrum.Band
	NumFBS   int
	Graph    *igraph.Graph // interference graph over the FBSs
	Users    []User
	Gamma    float64          // collision threshold of eq. (6)
	Detector sensing.Detector // sensing error model shared by sensors
	T        int              // GOP delivery deadline in slots
	GOPSize  int              // frames per GOP (16 in the paper)
}

// Validate checks structural consistency.
func (n *Network) Validate() error {
	if n.Band == nil {
		return fmt.Errorf("%w: nil band", ErrBadNetwork)
	}
	if n.NumFBS < 1 {
		return fmt.Errorf("%w: %d FBSs", ErrBadNetwork, n.NumFBS)
	}
	if n.Graph == nil || n.Graph.N() != n.NumFBS {
		return fmt.Errorf("%w: interference graph does not match %d FBSs", ErrBadNetwork, n.NumFBS)
	}
	if len(n.Users) == 0 {
		return fmt.Errorf("%w: no users", ErrBadNetwork)
	}
	for _, u := range n.Users {
		if u.FBS < 1 || u.FBS > n.NumFBS {
			return fmt.Errorf("%w: user %d served by FBS %d of %d", ErrBadNetwork, u.ID, u.FBS, n.NumFBS)
		}
		if err := u.Seq.RD.Validate(); err != nil {
			return fmt.Errorf("user %d: %w", u.ID, err)
		}
	}
	if !(n.Gamma >= 0 && n.Gamma <= 1) {
		return fmt.Errorf("%w: gamma=%v", ErrBadNetwork, n.Gamma)
	}
	if n.T < 1 {
		return fmt.Errorf("%w: deadline T=%d", ErrBadNetwork, n.T)
	}
	if n.GOPSize < 1 {
		return fmt.Errorf("%w: GOP size %d", ErrBadNetwork, n.GOPSize)
	}
	// Sensing fuses its observations from the utilization prior, which
	// must leave a channel some chance of being idle (eq. (1) with
	// P10 = 0 gives eta = 1: busy forever).
	if eta := n.Band.Utilization(); !(eta < 1) {
		return fmt.Errorf("%w: the licensed channels have utilization eta=%v; it must be below 1 (P10 > 0)", ErrBadNetwork, eta)
	}
	return nil
}

// K returns the number of users.
func (n *Network) K() int { return len(n.Users) }

// UsersOf returns the users served by FBS i (1-based).
func (n *Network) UsersOf(i int) []User {
	var out []User
	for _, u := range n.Users {
		if u.FBS == i {
			out = append(out, u)
		}
	}
	return out
}

// Config collects the scenario parameters of §V with the paper's defaults.
type Config struct {
	M     int     // licensed channels
	B0    float64 // common-channel capacity, Mbps
	B1    float64 // licensed-channel capacity, Mbps
	P01   float64 // idle-to-busy transition probability
	P10   float64 // busy-to-idle transition probability
	Gamma float64 // collision threshold
	Eps   float64 // sensing false-alarm probability
	Delta float64 // sensing miss-detection probability
	T     int     // GOP delivery deadline, slots

	// OFDMSubcarriers, when positive, replaces flat Rayleigh links with the
	// frequency-selective OFDM model of internal/ofdm: that many correlated
	// subcarriers per channel (adjacent-subcarrier correlation
	// ofdmCorrelation), packet success by EESM effective SINR (calibration
	// factor ofdmBetaDB). Zero keeps flat links; negative is invalid.
	OFDMSubcarriers int

	// Seed controls user placement; channel and fading randomness comes
	// from the per-run stream instead, so positions stay fixed across runs.
	Seed uint64
}

// DefaultConfig returns the paper's §V defaults: M=8, P01=0.4, P10=0.3,
// gamma=0.2, epsilon=delta=0.3, T=10, B0=B1=0.3 Mbps. The GOP size (16
// frames) and the radio calibration are fixed.
func DefaultConfig() Config {
	return Config{
		M:     8,
		B0:    0.3,
		B1:    0.3,
		P01:   0.4,
		P10:   0.3,
		Gamma: 0.2,
		Eps:   0.3,
		Delta: 0.3,
		T:     10,
		Seed:  1,
	}
}

// Utilization returns the licensed-channel utilization eta implied by the
// config, eq. (1).
func (c Config) Utilization() float64 { return c.P01 / (c.P01 + c.P10) }

// WithUtilization returns a copy of the config retuned to the target eta,
// keeping P10 fixed (the Fig. 4(c)/6(a) sweep).
func (c Config) WithUtilization(eta float64) (Config, error) {
	chain, err := markov.FromUtilization(eta, c.P10)
	if err != nil {
		return c, err
	}
	c.P01 = chain.P01()
	return c, nil
}

// build assembles a network from a list of femtocell coverage disks and the
// per-FBS video lists.
func build(cfg Config, disks []geometry.Disk, videosPerFBS [][]video.Sequence) (*Network, error) {
	if len(disks) != len(videosPerFBS) {
		return nil, fmt.Errorf("%w: %d femtocells but %d video groups", ErrBadNetwork, len(disks), len(videosPerFBS))
	}
	if cfg.OFDMSubcarriers < 0 {
		return nil, fmt.Errorf("%w: %d OFDM subcarriers", ErrBadNetwork, cfg.OFDMSubcarriers)
	}
	chain, err := markov.NewChain(cfg.P01, cfg.P10)
	if err != nil {
		return nil, err
	}
	band, err := spectrum.NewBand(cfg.M, cfg.B0, cfg.B1, chain)
	if err != nil {
		return nil, err
	}
	det, err := sensing.NewDetector(cfg.Eps, cfg.Delta)
	if err != nil {
		return nil, err
	}

	placement := rng.New(cfg.Seed).Split("netmodel/placement")
	mbsPos := geometry.Point{X: -mbsDistance, Y: 0}

	// Per-user mean SINR: the calibrated nominal SINR, corrected by
	// log-distance path loss relative to the nominal distance, plus
	// log-normal shadowing. Shadowing is drawn from the placement stream so
	// it is fixed per scenario and varies only with the seed.
	meanSINR := func(nominal, nominalDist, dist, shadow float64) float64 {
		if dist < 1 {
			dist = 1
		}
		return nominal - 10*pathLossExp*math.Log10(dist/nominalDist) + shadow
	}

	// Optional frequency-selective PHY: one shared OFDM channel profile;
	// per-link gain models are built at the link's operating SINR.
	var ofdmChannel *ofdm.Channel
	if cfg.OFDMSubcarriers > 0 {
		ofdmChannel, err = ofdm.NewChannel(cfg.OFDMSubcarriers, ofdmCorrelation, ofdmBetaDB)
		if err != nil {
			return nil, err
		}
	}
	makeLink := func(sinrDB float64, stream *rng.Stream) (fading.Link, error) {
		if ofdmChannel == nil {
			return fading.NewLink(sinrDB, thresholdDB, fading.Rayleigh{})
		}
		model, err := ofdm.NewGainModel(ofdmChannel, sinrDB, 4000, stream)
		if err != nil {
			return fading.Link{}, err
		}
		return fading.NewLink(sinrDB, thresholdDB, model)
	}

	var users []User
	id := 0
	for i, disk := range disks {
		stream := placement.SplitIndex("fbs", i)
		for _, seq := range videosPerFBS[i] {
			pos := disk.RandomInside(stream)
			mbsSINR := meanSINR(mbsMeanSINRdB, mbsDistance, pos.Dist(mbsPos),
				stream.Normal(0, shadowStdDB))
			fbsSINR := meanSINR(fbsMeanSINRdB, 0.7*femtoRadius, pos.Dist(disk.Center),
				stream.Normal(0, shadowStdDB))
			mbsLink, err := makeLink(mbsSINR, stream.SplitIndex("ofdm-mbs", id))
			if err != nil {
				return nil, err
			}
			fbsLink, err := makeLink(fbsSINR, stream.SplitIndex("ofdm-fbs", id))
			if err != nil {
				return nil, err
			}
			users = append(users, User{
				ID:      id,
				FBS:     i + 1,
				Pos:     pos,
				Seq:     seq,
				MBSLink: mbsLink,
				FBSLink: fbsLink,
			})
			id++
		}
	}

	n := &Network{
		Band:     band,
		NumFBS:   len(disks),
		Graph:    igraph.FromCoverage(disks),
		Users:    users,
		Gamma:    cfg.Gamma,
		Detector: det,
		T:        cfg.T,
		GOPSize:  gopSize,
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
