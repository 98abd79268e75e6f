// Package ofdm models the multicarrier physical layer the paper assumes
// ("Since OFDM is adopted, the total data rate is the number of available
// channels G^t times the bandwidth of each channel", §IV-A): each licensed
// channel carries S subcarriers whose fading is frequency selective —
// correlated Rayleigh across subcarriers, independent across slots — and a
// coded packet spanning the channel succeeds according to its *effective*
// SINR, computed with the standard exponential effective-SINR mapping
// (EESM):
//
//	SINR_eff = -beta * ln( (1/S) * sum_s exp(-SINR_s / beta) ).
//
// Frequency diversity makes the effective SINR far less variable than a
// flat Rayleigh channel at the same mean, which is why OFDM links see
// fewer deep outages. GainModel packages that behavior as a
// fading.Model so OFDM links drop into the rest of the system unchanged.
package ofdm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"femtocr/internal/fading"
	"femtocr/internal/rng"
)

// ErrBadChannel is returned for invalid OFDM parameters.
var ErrBadChannel = errors.New("ofdm: invalid channel parameters")

// Channel describes one OFDM licensed channel.
type Channel struct {
	subcarriers int
	corr        float64 // adjacent-subcarrier amplitude correlation in [0, 1)
	beta        float64 // EESM calibration factor
}

// NewChannel builds a channel with S subcarriers, adjacent-subcarrier
// correlation corr (0 = independent, near 1 = flat), and the EESM beta in
// dB (a per-modulation calibration constant; ~5 dB suits QPSK-class
// coding).
func NewChannel(subcarriers int, corr, betaDB float64) (*Channel, error) {
	if subcarriers < 1 {
		return nil, fmt.Errorf("%w: %d subcarriers", ErrBadChannel, subcarriers)
	}
	if corr < 0 || corr >= 1 || math.IsNaN(corr) {
		return nil, fmt.Errorf("%w: correlation %v", ErrBadChannel, corr)
	}
	if math.IsNaN(betaDB) || math.IsInf(betaDB, 0) {
		return nil, fmt.Errorf("%w: beta %v dB", ErrBadChannel, betaDB)
	}
	return &Channel{
		subcarriers: subcarriers,
		corr:        corr,
		beta:        fading.FromDB(betaDB),
	}, nil
}

// Subcarriers returns S.
func (c *Channel) Subcarriers() int { return c.subcarriers }

// SampleGainsInto draws one slot's per-subcarrier power gains into a
// caller-owned buffer of length Subcarriers(), for hot loops that reuse one
// gains slice: the squared magnitude of a first-order autoregressive
// complex-Gaussian frequency response, giving unit-mean Rayleigh power per
// subcarrier with amplitude correlation corr between neighbors.
//
//femtovet:borrows gains, s
func (c *Channel) SampleGainsInto(gains []float64, s *rng.Stream) {
	// Complex Gaussian with E|h|^2 = 1: each quadrature N(0, 1/2).
	const sigma = 0.7071067811865476
	re := s.Normal(0, sigma)
	im := s.Normal(0, sigma)
	gains[0] = re*re + im*im
	rho := c.corr
	innov := math.Sqrt(1 - rho*rho)
	for i := 1; i < c.subcarriers; i++ {
		re = rho*re + innov*s.Normal(0, sigma)
		im = rho*im + innov*s.Normal(0, sigma)
		gains[i] = re*re + im*im
	}
}

// EffectiveSINR maps per-subcarrier SINRs (linear) to the EESM effective
// SINR (linear). The sum is evaluated with the log-sum-exp shift so small
// beta values (where exp(-SINR/beta) underflows) stay exact: the worst
// subcarrier dominates, as EESM prescribes.
func (c *Channel) EffectiveSINR(sinrs []float64) float64 {
	if len(sinrs) == 0 {
		return 0
	}
	min := sinrs[0]
	for _, g := range sinrs[1:] {
		if g < min {
			min = g
		}
	}
	sum := 0.0
	for _, g := range sinrs {
		sum += math.Exp(-(g - min) / c.beta)
	}
	return min - c.beta*math.Log(sum/float64(len(sinrs)))
}

// GainModel adapts the OFDM channel to the fading.Model interface: the
// per-slot "power gain" is the normalized effective SINR
// EESM(meanSINR * gains) / meanSINR, so fading.Link's outage test
// SINR_eff <= H is exact. The outage CDF is an empirical table sampled at
// construction (EESM has no closed form).
type GainModel struct {
	ch       *Channel
	meanSINR float64 // mean per-subcarrier SINR the model is built for
	stream   *rng.Stream
	table    []float64 // sorted normalized effective gains
}

var _ fading.Model = (*GainModel)(nil)

// NewGainModel builds the model for links operating near meanSINRdB. The
// empirical outage table uses the given number of Monte-Carlo samples
// (minimum 1000) drawn from stream.
func NewGainModel(ch *Channel, meanSINRdB float64, samples int, stream *rng.Stream) (*GainModel, error) {
	if ch == nil {
		return nil, fmt.Errorf("%w: nil channel", ErrBadChannel)
	}
	if math.IsNaN(meanSINRdB) || math.IsInf(meanSINRdB, 0) {
		return nil, fmt.Errorf("%w: mean SINR %v dB", ErrBadChannel, meanSINRdB)
	}
	if samples < 1000 {
		samples = 1000
	}
	m := &GainModel{
		ch:       ch,
		meanSINR: fading.FromDB(meanSINRdB),
		stream:   stream.Split("ofdm/model"),
	}
	tableStream := stream.Split("ofdm/table")
	m.table = make([]float64, samples)
	for i := range m.table {
		m.table[i] = m.draw(tableStream)
	}
	sort.Float64s(m.table)
	return m, nil
}

// draw samples one normalized effective gain. The gains buffer lives on the
// stack (for realistic subcarrier counts) rather than on the model: a
// GainModel is shared by every link of a network, including across
// concurrently simulated runs, so it must hold no mutable scratch.
func (m *GainModel) draw(s *rng.Stream) float64 {
	var buf [64]float64
	var gains []float64
	if m.ch.subcarriers <= len(buf) {
		gains = buf[:m.ch.subcarriers]
	} else {
		gains = make([]float64, m.ch.subcarriers)
	}
	m.ch.SampleGainsInto(gains, s)
	for i := range gains {
		gains[i] *= m.meanSINR
	}
	return m.ch.EffectiveSINR(gains) / m.meanSINR
}

// PowerGain samples the slot's normalized effective gain.
func (m *GainModel) PowerGain(s *rng.Stream) float64 {
	if s == nil {
		s = m.stream
	}
	return m.draw(s)
}

// OutageCDF returns the empirical Pr{normalized effective gain <= x}.
func (m *GainModel) OutageCDF(x float64) float64 {
	idx := sort.SearchFloat64s(m.table, x)
	return float64(idx) / float64(len(m.table))
}

// Name identifies the model.
func (m *GainModel) Name() string {
	return fmt.Sprintf("ofdm-%d@%.2f", m.ch.subcarriers, m.ch.corr)
}
