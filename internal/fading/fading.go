// Package fading implements the independent block-fading channel model of
// the paper's §III-D: the channel power gain is constant within a time slot
// and independent across slots, and a packet is decoded successfully iff the
// received SINR exceeds a threshold H. The packet-loss probability from base
// station i to user j is then P_F = Pr{X <= H} = F_X(H), eq. (8).
//
// Rayleigh fading (exponential power gain) is the primary model; Nakagami-m
// is provided as a generalization, with the regularized incomplete gamma
// function implemented from scratch for its outage CDF.
package fading

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/rng"
)

// ErrBadLink is returned for non-finite or non-positive link parameters.
var ErrBadLink = errors.New("fading: invalid link parameters")

// ErrBadModel is returned for invalid fading-model parameters.
var ErrBadModel = errors.New("fading: invalid model parameters")

// Model is a unit-mean block-fading power-gain distribution.
type Model interface {
	// PowerGain samples the channel power gain for one slot (mean 1).
	PowerGain(s *rng.Stream) float64
	// OutageCDF returns Pr{gain <= x}.
	OutageCDF(x float64) float64
	// Name identifies the model.
	Name() string
}

// Rayleigh is Rayleigh envelope fading: the power gain is exponential with
// unit mean, the model the paper's evaluation assumes.
type Rayleigh struct{}

var _ Model = Rayleigh{}

// PowerGain samples a unit-mean exponential gain.
func (Rayleigh) PowerGain(s *rng.Stream) float64 { return s.ExpGain() }

// OutageCDF returns 1 - exp(-x) for x >= 0.
func (Rayleigh) OutageCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x)
}

// Name returns "rayleigh".
func (Rayleigh) Name() string { return "rayleigh" }

// Nakagami is Nakagami-m fading: power gain ~ Gamma(m, 1/m), unit mean.
// m = 1 reduces to Rayleigh; larger m models milder fading (stronger
// line-of-sight), smaller m (>= 0.5) harsher fading.
type Nakagami struct {
	m float64
}

var _ Model = Nakagami{}

// NewNakagami validates the shape parameter m >= 0.5.
func NewNakagami(m float64) (Nakagami, error) {
	if math.IsNaN(m) || m < 0.5 {
		return Nakagami{}, fmt.Errorf("%w: Nakagami m=%v (need m >= 0.5)", ErrBadModel, m)
	}
	return Nakagami{m: m}, nil
}

// M returns the shape parameter.
func (n Nakagami) M() float64 { return n.m }

// PowerGain samples Gamma(m, scale 1/m), which has mean 1.
func (n Nakagami) PowerGain(s *rng.Stream) float64 {
	return sampleGamma(n.m, s) / n.m
}

// OutageCDF returns the regularized lower incomplete gamma P(m, m*x).
func (n Nakagami) OutageCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(n.m, n.m*x)
}

// Name returns "nakagami-m".
func (n Nakagami) Name() string { return fmt.Sprintf("nakagami-%g", n.m) }

// Link is one base-station-to-user wireless link under block fading.
type Link struct {
	meanSINR  float64 // linear
	threshold float64 // linear
	model     Model
}

// NewLink builds a link from the mean received SINR and the decoding
// threshold H, both in dB. A nil model defaults to Rayleigh.
func NewLink(meanSINRdB, thresholdDB float64, model Model) (Link, error) {
	if math.IsNaN(meanSINRdB) || math.IsInf(meanSINRdB, 0) ||
		math.IsNaN(thresholdDB) || math.IsInf(thresholdDB, 0) {
		return Link{}, fmt.Errorf("%w: meanSINR=%vdB H=%vdB", ErrBadLink, meanSINRdB, thresholdDB)
	}
	if model == nil {
		model = Rayleigh{}
	}
	return Link{
		meanSINR:  FromDB(meanSINRdB),
		threshold: FromDB(thresholdDB),
		model:     model,
	}, nil
}

// MeanSINRdB returns the mean received SINR in dB.
func (l Link) MeanSINRdB() float64 { return ToDB(l.meanSINR) }

// ThresholdDB returns the decoding threshold H in dB.
func (l Link) ThresholdDB() float64 { return ToDB(l.threshold) }

// Model returns the fading model.
func (l Link) Model() Model { return l.model }

// LossProbability returns P_F = F_X(H) of eq. (8): the probability the
// received SINR falls below the decoding threshold in one slot.
func (l Link) LossProbability() float64 {
	return l.model.OutageCDF(l.threshold / l.meanSINR)
}

// SuccessProbability returns 1 - P_F, the paper's \bar{P}_F.
func (l Link) SuccessProbability() float64 { return 1 - l.LossProbability() }

// SampleSINR draws the received SINR for one slot (block fading: one draw
// per slot, constant within it).
func (l Link) SampleSINR(s *rng.Stream) float64 {
	return l.meanSINR * l.model.PowerGain(s)
}

// Lost realizes one slot's packet-loss indicator: true iff the sampled SINR
// is at or below the threshold.
func (l Link) Lost(s *rng.Stream) bool {
	return l.SampleSINR(s) <= l.threshold
}

// PathLoss is the log-distance path-loss model: loss(d) = RefLossDB +
// 10*Exponent*log10(d/RefDist) dB for d >= RefDist.
type PathLoss struct {
	RefLossDB float64 // path loss at the reference distance, dB
	Exponent  float64 // path-loss exponent (2 free space .. 4+ indoor)
	RefDist   float64 // reference distance, meters
}

// DefaultPathLoss is a typical indoor femtocell model: 37 dB loss at 1 m
// with exponent 3.
var DefaultPathLoss = PathLoss{RefLossDB: 37, Exponent: 3, RefDist: 1}

// LossDB returns the path loss in dB at distance d meters. Distances inside
// the reference distance are clamped to it.
func (p PathLoss) LossDB(d float64) float64 {
	if d < p.RefDist {
		d = p.RefDist
	}
	return p.RefLossDB + 10*p.Exponent*math.Log10(d/p.RefDist)
}

// MeanSINRdB returns the mean received SINR in dB for a transmitter at
// txPowerDBm, noise-plus-interference floor noiseDBm, and distance d meters.
func MeanSINRdB(txPowerDBm, noiseDBm float64, pl PathLoss, d float64) float64 {
	return txPowerDBm - pl.LossDB(d) - noiseDBm
}

// LinkAt builds a Rayleigh link for a transmitter/receiver pair at distance
// d meters.
func LinkAt(txPowerDBm, noiseDBm, thresholdDB float64, pl PathLoss, d float64) (Link, error) {
	return NewLink(MeanSINRdB(txPowerDBm, noiseDBm, pl, d), thresholdDB, Rayleigh{})
}

// ToDB converts a linear power ratio to dB.
func ToDB(x float64) float64 { return 10 * math.Log10(x) }

// FromDB converts dB to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
