// Package fading implements the independent block-fading channel model of
// the paper's §III-D: the channel power gain is constant within a time slot
// and independent across slots, and a packet is decoded successfully iff the
// received SINR exceeds a threshold H. The packet-loss probability from base
// station i to user j is then P_F = Pr{X <= H} = F_X(H), eq. (8).
//
// Rayleigh fading (exponential power gain) is the paper's model; the
// frequency-selective OFDM gain model of internal/ofdm implements the same
// Model interface.
package fading

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/rng"
)

// ErrBadLink is returned for non-finite or non-positive link parameters.
var ErrBadLink = errors.New("fading: invalid link parameters")

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

// ToDB converts a linear power ratio to dB.
func ToDB(x float64) float64 { return 10 * math.Log10(x) }

// FromDB converts dB to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
