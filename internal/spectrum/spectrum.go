// Package spectrum models the licensed band of the paper's primary network:
// M licensed channels of capacity B1 each plus one common unlicensed channel
// of capacity B0 (paper §III-A). Occupancy of each licensed channel evolves
// as an independent two-state Markov chain; the common channel is always
// available to the CR network.
package spectrum

import (
	"errors"
	"fmt"
	"math"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
)

// ErrBadConfig is returned for a non-positive channel count or a
// non-positive or NaN capacity.
var ErrBadConfig = errors.New("spectrum: invalid configuration")

// Band describes the spectrum: M licensed channels, indexed 1..M as in the
// paper, plus the common channel.
type Band struct {
	m     int
	b0    float64 // common-channel capacity, Mbps
	b1    float64 // per-licensed-channel capacity, Mbps
	chain markov.Chain
}

// NewBand builds a band with M licensed channels, all following the same
// occupancy chain. B0 and B1 are channel capacities in Mbps.
func NewBand(m int, b0, b1 float64, chain markov.Chain) (*Band, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: M=%d licensed channels", ErrBadConfig, m)
	}
	if !(b0 > 0 && b1 > 0) || math.IsInf(b0, 1) || math.IsInf(b1, 1) {
		return nil, fmt.Errorf("%w: B0=%v B1=%v Mbps", ErrBadConfig, b0, b1)
	}
	return &Band{m: m, b0: b0, b1: b1, chain: chain}, nil
}

// M returns the number of licensed channels.
func (b *Band) M() int { return b.m }

// B0 returns the common-channel capacity in Mbps.
func (b *Band) B0() float64 { return b.b0 }

// B1 returns the per-licensed-channel capacity in Mbps.
func (b *Band) B1() float64 { return b.b1 }

// Chain returns the occupancy chain every licensed channel follows.
func (b *Band) Chain() markov.Chain { return b.chain }

// Utilization returns the stationary utilization eta of every licensed
// channel, per eq. (1).
func (b *Band) Utilization() float64 { return b.chain.Utilization() }

// Occupancy is the true state vector S(t) of the licensed channels;
// Occupancy[m-1] is the state of channel m.
type Occupancy []markov.State

// Idle reports whether licensed channel m (1-based) is idle.
func (o Occupancy) Idle(m int) bool { return o[m-1] == markov.Idle }

// NumIdle returns the number of idle licensed channels.
func (o Occupancy) NumIdle() int {
	n := 0
	for _, s := range o {
		if s == markov.Idle {
			n++
		}
	}
	return n
}

// Clone returns a copy of the occupancy vector.
func (o Occupancy) Clone() Occupancy {
	cp := make(Occupancy, len(o))
	copy(cp, o)
	return cp
}

// Simulator advances the occupancy of a band slot by slot. Each channel
// draws from its own random stream so trajectories are stable when channels
// are added or removed.
type Simulator struct {
	band    *Band
	state   Occupancy
	streams []*rng.Stream
	slot    int
}

// NewSimulator creates a simulator with the initial occupancy drawn from
// each channel's stationary distribution.
func NewSimulator(band *Band, stream *rng.Stream) *Simulator {
	streams := make([]*rng.Stream, band.m)
	state := make(Occupancy, band.m)
	for i := 0; i < band.m; i++ {
		streams[i] = stream.SplitIndex("spectrum/channel", i+1)
		state[i] = band.chain.SampleStationary(streams[i])
	}
	return &Simulator{band: band, state: state, streams: streams}
}

// Slot returns the index of the current slot (0-based; incremented by Step).
func (s *Simulator) Slot() int { return s.slot }

// Occupancy returns the current true channel states. The returned slice is a
// copy; mutating it does not affect the simulator.
func (s *Simulator) Occupancy() Occupancy { return s.state.Clone() }

// StepInPlace advances every channel one slot and returns the new
// occupancy: the simulator's own state vector, valid only until the next
// step, so per-slot loops pay no copy. Clone it to keep it.
func (s *Simulator) StepInPlace() Occupancy {
	for i := range s.state {
		s.state[i] = s.band.chain.Next(s.state[i], s.streams[i])
	}
	s.slot++
	return s.state
}
