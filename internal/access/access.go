// Package access implements the probabilistic opportunistic channel access
// rule of the paper's §III-C.
//
// After fusing the slot's sensing results into per-channel availability
// posteriors P_A, each licensed channel is accessed (decision variable
// D_m = 0) with probability P_D = min(gamma * eta_m / (1 - P_A), 1), where
// eta_m is the channel's prior busy probability. This is the largest access
// probability that keeps the collision probability with primary users,
// conditioned on the channel actually being busy, below the threshold gamma
// (eqs. (6)-(7)): by Bayes' rule
//
//	Pr[D_m = 0 | busy] = E[P_D * Pr(busy | obs)] / Pr(busy)
//	                   = E[(1 - P_A) * P_D] / eta_m <= gamma.
//
// The set of accessed channels is A(t), and G_t = sum over A(t) of P_A is
// the expected number of truly available channels used by the
// resource-allocation problem.
package access

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/rng"
	"femtocr/internal/spectrum"
)

// ErrBadGamma is returned when the collision threshold lies outside [0, 1].
var ErrBadGamma = errors.New("access: collision threshold gamma must be in [0, 1]")

// Policy is the access controller for the licensed band.
type Policy struct {
	gamma float64
}

// NewPolicy builds a Policy with the maximum allowable conditional collision
// probability gamma (per channel, given the channel is busy).
func NewPolicy(gamma float64) (Policy, error) {
	if gamma < 0 || gamma > 1 || math.IsNaN(gamma) {
		return Policy{}, fmt.Errorf("%w: gamma=%v", ErrBadGamma, gamma)
	}
	return Policy{gamma: gamma}, nil
}

// AccessProbability returns P_D of eq. (7) for a channel with prior busy
// probability priorBusy (the channel's utilization eta_m, or the belief
// filter's predictive prior) and fused availability posterior pa: the
// probability the channel is declared idle and accessed. The per-decision
// collision budget is gamma * priorBusy, so that averaging over sensing
// outcomes bounds the conditional collision probability
// Pr[access | busy] at gamma.
func (p Policy) AccessProbability(priorBusy, pa float64) float64 {
	busy := 1 - pa
	budget := p.gamma * priorBusy
	if busy <= budget {
		// Even if the channel turns out busy, colliding is within budget.
		return 1
	}
	return budget / busy
}

// ChannelDecision records the access outcome for one licensed channel.
type ChannelDecision struct {
	Channel    int     // 1-based licensed channel index
	Prior      float64 // prior busy probability eta_m used by the rule
	Posterior  float64 // fused availability P_A
	AccessProb float64 // P_D of eq. (7)
	Accessed   bool    // D_m = 0 in the paper's encoding
}

// SlotDecision aggregates the per-channel decisions of one slot.
type SlotDecision struct {
	Channels []ChannelDecision
}

// DecideInto draws the access decision D_m for every licensed channel given
// the per-channel prior busy probabilities (priors[m-1] = eta of channel m;
// channels beyond priors default to 1) and the fused posteriors
// (posteriors[m-1] = P_A of channel m). It writes into a caller-owned
// decision, reusing its Channels slice, so per-slot loops keep one
// SlotDecision alive.
//
//femtovet:borrows priors, posteriors, s, out
func (p Policy) DecideInto(priors, posteriors []float64, s *rng.Stream, out *SlotDecision) {
	m := len(posteriors)
	if cap(out.Channels) < m {
		out.Channels = make([]ChannelDecision, m)
	} else {
		out.Channels = out.Channels[:m]
	}
	for i, pa := range posteriors {
		prior := 1.0
		if i < len(priors) {
			prior = priors[i]
		}
		pd := p.AccessProbability(prior, pa)
		out.Channels[i] = ChannelDecision{
			Channel:    i + 1,
			Prior:      prior,
			Posterior:  pa,
			AccessProb: pd,
			Accessed:   s.Bernoulli(pd),
		}
	}
}

// AppendAvailable appends the accessed channel set A(t), as 1-based
// indices, to buf (typically buf[:0] of a reused slice) and returns it.
//
//femtovet:owns buf
func (d SlotDecision) AppendAvailable(buf []int) []int {
	for _, c := range d.Channels {
		if c.Accessed {
			buf = append(buf, c.Channel)
		}
	}
	return buf
}

// ExpectedAvailable returns G_t = sum over accessed channels of P_A, the
// expected number of truly idle channels among those accessed.
func (d SlotDecision) ExpectedAvailable() float64 {
	g := 0.0
	for _, c := range d.Channels {
		if c.Accessed {
			g += c.Posterior
		}
	}
	return g
}

// NumAccessed returns |A(t)|.
func (d SlotDecision) NumAccessed() int {
	n := 0
	for _, c := range d.Channels {
		if c.Accessed {
			n++
		}
	}
	return n
}

// CollisionBound returns the largest per-channel conditional collision
// probability (1 - P_A) * P_D / eta_m of this slot, the left-hand side of
// eq. (6) after conditioning on a busy channel. A correct policy keeps it
// at or below gamma. Channels with a zero prior (never busy) contribute
// nothing: they cannot collide.
func (d SlotDecision) CollisionBound() float64 {
	worst := 0.0
	for _, c := range d.Channels {
		if c.Prior <= 0 {
			continue
		}
		if v := (1 - c.Posterior) * c.AccessProb / c.Prior; v > worst {
			worst = v
		}
	}
	return worst
}

// CollisionTracker measures the realized collision rate against the true
// channel occupancy, validating primary-user protection end to end.
type CollisionTracker struct {
	slots      int
	collisions []int // per channel: slots where accessed && truly busy
	busySlots  []int // per channel: slots where truly busy
}

// NewCollisionTracker tracks m licensed channels.
func NewCollisionTracker(m int) *CollisionTracker {
	return &CollisionTracker{
		collisions: make([]int, m),
		busySlots:  make([]int, m),
	}
}

// Record accounts one slot's decision against the true occupancy.
func (c *CollisionTracker) Record(d SlotDecision, truth spectrum.Occupancy) {
	c.slots++
	for _, ch := range d.Channels {
		idx := ch.Channel - 1
		if idx < 0 || idx >= len(c.collisions) {
			continue
		}
		if !truth.Idle(ch.Channel) {
			c.busySlots[idx]++
			if ch.Accessed {
				c.collisions[idx]++
			}
		}
	}
}

// Slots returns the number of recorded slots.
func (c *CollisionTracker) Slots() int { return c.slots }

// BusySlots returns the number of recorded slots in which channel m
// (1-based) was truly occupied by a primary user.
func (c *CollisionTracker) BusySlots(m int) int { return c.busySlots[m-1] }

// Rate returns the per-slot collision probability of channel m (1-based):
// the fraction of ALL slots in which the CR network transmitted on channel m
// while a primary user occupied it. This is a diagnostic, NOT the quantity
// bounded by gamma: eq. (6) conditions on the channel being busy, so the
// per-slot ratio understates the checked quantity by the channel's
// utilization eta (Rate ≈ eta * ConditionalRate). Use ConditionalRate for
// the primary-user-protection check.
func (c *CollisionTracker) Rate(m int) float64 {
	if c.slots == 0 {
		return 0
	}
	return float64(c.collisions[m-1]) / float64(c.slots)
}

// MaxRate returns the largest per-channel per-slot collision rate (see
// Rate for why this is a diagnostic rather than the eq. (6) check).
func (c *CollisionTracker) MaxRate() float64 {
	worst := 0.0
	for m := 1; m <= len(c.collisions); m++ {
		if r := c.Rate(m); r > worst {
			worst = r
		}
	}
	return worst
}

// ConditionalRate returns the conditional collision probability of channel m
// (1-based): the fraction of truly-busy slots in which the CR network
// nevertheless transmitted on channel m. This is the quantity eq. (6)
// bounds by gamma. A channel that was never busy has no collision exposure
// and reports 0.
func (c *CollisionTracker) ConditionalRate(m int) float64 {
	if c.busySlots[m-1] == 0 {
		return 0
	}
	return float64(c.collisions[m-1]) / float64(c.busySlots[m-1])
}

// MaxConditionalRate returns the largest per-channel conditional collision
// rate, the realized left-hand side of eq. (6).
func (c *CollisionTracker) MaxConditionalRate() float64 {
	worst := 0.0
	for m := 1; m <= len(c.collisions); m++ {
		if r := c.ConditionalRate(m); r > worst {
			worst = r
		}
	}
	return worst
}
