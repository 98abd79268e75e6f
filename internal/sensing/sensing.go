// Package sensing implements spectrum sensing with detection errors and the
// Bayesian fusion of sensing results from the paper's §III-B.
//
// Each sensor observes a licensed channel through a binary hypothesis test
// with false-alarm probability epsilon (idle reported busy, an opportunity
// wasted) and miss-detection probability delta (busy reported idle, a
// potential collision with primary users). Given L sensing results
// Theta_1..Theta_L on a channel with utilization eta, the conditional
// probability that the channel is available is eq. (2); eqs. (3)-(4) give
// the equivalent iterative update used when results arrive one at a time
// over the common channel.
package sensing

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

// ErrBadDetector is returned when detector error probabilities lie outside
// [0, 1) or are NaN.
var ErrBadDetector = errors.New("sensing: detector error probabilities must be in [0, 1)")

// ErrBadPrior is returned when channel utilization lies outside [0, 1) or is
// NaN.
var ErrBadPrior = errors.New("sensing: utilization prior must be in [0, 1)")

// Detector models one spectrum sensor: Pr{report busy | idle} = FalseAlarm
// and Pr{report idle | busy} = MissDetect.
type Detector struct {
	falseAlarm float64
	missDetect float64
}

// NewDetector validates and builds a Detector. Both error probabilities must
// lie in [0, 1); exactly-one would make the likelihood ratios degenerate
// (a sensor that is always wrong).
func NewDetector(falseAlarm, missDetect float64) (Detector, error) {
	if !(falseAlarm >= 0 && falseAlarm < 1 && missDetect >= 0 && missDetect < 1) {
		return Detector{}, fmt.Errorf("%w: epsilon=%v delta=%v", ErrBadDetector, falseAlarm, missDetect)
	}
	return Detector{falseAlarm: falseAlarm, missDetect: missDetect}, nil
}

// FalseAlarm returns epsilon, the probability an idle channel is reported
// busy.
func (d Detector) FalseAlarm() float64 { return d.falseAlarm }

// MissDetect returns delta, the probability a busy channel is reported idle.
func (d Detector) MissDetect() float64 { return d.missDetect }

// Sense produces one observation of a channel whose true state is truth.
func (d Detector) Sense(truth markov.State, s *rng.Stream) Observation {
	var busy bool
	if truth == markov.Idle {
		busy = s.Bernoulli(d.falseAlarm) // false alarm
	} else {
		busy = !s.Bernoulli(d.missDetect) // correct detection unless missed
	}
	return Observation{Busy: busy, Detector: d}
}

// Observation is one sensing result Theta together with the error
// characteristics of the detector that produced it, which the fusion rule
// needs to weight the result.
type Observation struct {
	Busy     bool // Theta = 1 when the sensor reports busy
	Detector Detector
}

// likelihoodRatio returns P(Theta | H1-busy) / P(Theta | H0-idle), the factor
// each observation contributes to the busy-vs-idle odds in eqs. (2)-(4).
func (o Observation) likelihoodRatio() float64 {
	d := o.Detector
	if o.Busy {
		// Reported busy: P(busy report|busy)/P(busy report|idle).
		return (1 - d.missDetect) / d.falseAlarm
	}
	// Reported idle: P(idle report|busy)/P(idle report|idle).
	return d.missDetect / (1 - d.falseAlarm)
}

// Fuser accumulates sensing results into the availability posterior using
// the iterative decomposition of eqs. (3)-(4). The state kept between
// updates is the busy-vs-idle odds; Posterior converts it back to P_A, the
// probability of eq. (2) that the channel is idle given the prior and every
// result fused so far.
type Fuser struct {
	oddsBusy float64 // (1 - P_A) / P_A
}

// NewFuser starts a fusion with the utilization prior eta, so the initial
// posterior equals the stationary idle probability 1-eta.
func NewFuser(eta float64) (*Fuser, error) {
	if !(eta >= 0 && eta < 1) {
		return nil, fmt.Errorf("%w: eta=%v", ErrBadPrior, eta)
	}
	return &Fuser{oddsBusy: eta / (1 - eta)}, nil
}

// Reset restarts the fusion with a new utilization prior, reusing the Fuser.
// It is the allocation-free equivalent of NewFuser for per-slot loops that
// keep one Fuser per channel.
func (f *Fuser) Reset(eta float64) error {
	if !(eta >= 0 && eta < 1) {
		return fmt.Errorf("%w: eta=%v", ErrBadPrior, eta)
	}
	f.oddsBusy = eta / (1 - eta)
	return nil
}

// Update folds one observation into the posterior; this is one application
// of eq. (4) (or eq. (3) for the first observation). Certainty is
// absorbing: once the odds are exactly 0 (certainly idle) or infinite
// (certainly busy), later observations cannot move them — this also guards
// the 0 * Inf = NaN that contradictory certainties (a zero prior meeting a
// perfect detector's opposite report) would otherwise produce.
func (f *Fuser) Update(o Observation) {
	if f.oddsBusy == 0 || math.IsInf(f.oddsBusy, 1) {
		return
	}
	f.oddsBusy *= o.likelihoodRatio()
}

// Posterior returns the current availability probability
// P_A = 1 / (1 + oddsBusy).
func (f *Fuser) Posterior() float64 {
	return 1 / (1 + f.oddsBusy)
}
