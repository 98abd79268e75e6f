// Package markov implements the two-state discrete-time Markov process that
// models primary-user occupancy of each licensed channel (paper §III-A).
//
// A channel is either Idle (state 0) or Busy (state 1). P01 is the
// idle-to-busy transition probability and P10 the busy-to-idle probability.
// The long-run fraction of busy slots — the channel utilization of eq. (1) —
// is eta = P01 / (P01 + P10).
package markov

import (
	"errors"
	"fmt"

	"femtocr/internal/rng"
)

// State is the occupancy of a channel in one time slot.
type State int

// Channel occupancy states. The paper encodes idle as 0 and busy as 1; we
// keep that encoding so State values can index probability tables directly.
const (
	Idle State = 0
	Busy State = 1
)

// String returns "idle" or "busy".
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrInvalidProbability is returned when a transition probability lies
// outside [0, 1] or is NaN.
var ErrInvalidProbability = errors.New("markov: transition probability outside [0, 1]")

// ErrDegenerateChain is returned when both transition probabilities are zero,
// which leaves the stationary distribution undefined.
var ErrDegenerateChain = errors.New("markov: P01 + P10 must be positive")

// Chain is a two-state discrete-time Markov chain.
type Chain struct {
	p01 float64 // Pr{next = Busy | current = Idle}
	p10 float64 // Pr{next = Idle | current = Busy}
}

// NewChain builds a chain from the idle-to-busy and busy-to-idle transition
// probabilities.
func NewChain(p01, p10 float64) (Chain, error) {
	if !(p01 >= 0 && p01 <= 1 && p10 >= 0 && p10 <= 1) {
		return Chain{}, fmt.Errorf("%w: P01=%v P10=%v", ErrInvalidProbability, p01, p10)
	}
	if p01+p10 == 0 {
		return Chain{}, ErrDegenerateChain
	}
	return Chain{p01: p01, p10: p10}, nil
}

// FromUtilization builds a chain with the target utilization eta (eq. 1)
// keeping the busy-to-idle probability p10 fixed. This is how the evaluation
// sweeps eta in Fig. 4(c) and Fig. 6(a) without changing the busy-period
// structure. It requires 0 <= eta < 1 and the implied P01 to stay in [0, 1].
func FromUtilization(eta, p10 float64) (Chain, error) {
	if !(eta >= 0 && eta < 1) {
		return Chain{}, fmt.Errorf("%w: eta=%v must be in [0, 1)", ErrInvalidProbability, eta)
	}
	// eta = p01/(p01+p10)  =>  p01 = eta*p10/(1-eta).
	p01 := eta * p10 / (1 - eta)
	if p01 > 1 {
		return Chain{}, fmt.Errorf("%w: eta=%v with P10=%v needs P01=%v > 1",
			ErrInvalidProbability, eta, p10, p01)
	}
	return NewChain(p01, p10)
}

// P01 returns the idle-to-busy transition probability.
func (c Chain) P01() float64 { return c.p01 }

// P10 returns the busy-to-idle transition probability.
func (c Chain) P10() float64 { return c.p10 }

// Utilization returns the stationary busy probability eta = P01/(P01+P10)
// of eq. (1).
func (c Chain) Utilization() float64 { return c.p01 / (c.p01 + c.p10) }

// Next samples the state following cur using stream s.
func (c Chain) Next(cur State, s *rng.Stream) State {
	switch cur {
	case Idle:
		if s.Bernoulli(c.p01) {
			return Busy
		}
		return Idle
	default:
		if s.Bernoulli(c.p10) {
			return Idle
		}
		return Busy
	}
}

// SampleStationary draws an initial state from the stationary distribution.
func (c Chain) SampleStationary(s *rng.Stream) State {
	if s.Bernoulli(c.Utilization()) {
		return Busy
	}
	return Idle
}
