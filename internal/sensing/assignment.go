package sensing

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"femtocr/internal/rng"
)

// AssignmentPolicy selects which licensed channel each single-transceiver CR
// user senses in a slot (paper §III-B: "Each CR user chooses one channel to
// sense in a time slot, since it only has one transceiver"). FBSs have M
// antennas and sense every channel, so policies apply to users only.
type AssignmentPolicy int

// Supported policies.
const (
	// RoundRobin rotates users across channels with the slot index so every
	// channel is sensed equally often over time.
	RoundRobin AssignmentPolicy = iota + 1
	// RandomAssign draws each user's channel uniformly at random per slot.
	RandomAssign
	// Stratified spreads users as evenly as possible across channels within
	// each single slot, randomizing only the channel order.
	Stratified
	// UncertaintyDriven targets the channels whose occupancy is least
	// certain. It needs per-channel busy beliefs (see
	// AssignByUncertaintyInto); the generic AssignInto falls back to
	// round-robin for it.
	UncertaintyDriven
)

// String names the policy.
func (p AssignmentPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case RandomAssign:
		return "random"
	case Stratified:
		return "stratified"
	case UncertaintyDriven:
		return "uncertainty-driven"
	default:
		return fmt.Sprintf("AssignmentPolicy(%d)", int(p))
	}
}

// ErrBadAssignment is returned for invalid channel counts or ranking
// buffers, stochastic policies without a stream, and unknown policies.
var ErrBadAssignment = errors.New("sensing: invalid assignment request")

// permBuf is a pooled permutation buffer for the stratified policy, so the
// per-slot AssignInto stays allocation-free once the pool is warm.
type permBuf struct{ p []int }

var permPool = sync.Pool{New: func() any { return new(permBuf) }}

// growInt returns an int slice of length n, reusing buf's backing array when
// it is large enough. Contents are unspecified.
func growInt(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// AssignInto maps each user-sensor to one licensed channel (1-based),
// writing into a caller-owned buffer whose length gives the sensor count,
// so per-slot loops reuse one assignment slice. slot rotates deterministic
// policies over time; s supplies randomness for the stochastic policies and
// may be nil for RoundRobin.
//
//femtovet:borrows out, s
func AssignInto(out []int, policy AssignmentPolicy, m, slot int, s *rng.Stream) error {
	if m <= 0 {
		return fmt.Errorf("%w: numSensors=%d M=%d", ErrBadAssignment, len(out), m)
	}
	switch policy {
	case RoundRobin, UncertaintyDriven:
		// UncertaintyDriven needs beliefs; without them (this generic entry
		// point) it degrades to round-robin.
		for i := range out {
			out[i] = (i+slot)%m + 1
		}
	case RandomAssign:
		if s == nil {
			return fmt.Errorf("%w: random policy needs a stream", ErrBadAssignment)
		}
		for i := range out {
			out[i] = s.IntN(m) + 1
		}
	case Stratified:
		if s == nil {
			return fmt.Errorf("%w: stratified policy needs a stream", ErrBadAssignment)
		}
		buf := permPool.Get().(*permBuf)
		defer permPool.Put(buf)
		buf.p = growInt(buf.p, m)
		s.PermInto(buf.p)
		for i := range out {
			out[i] = buf.p[i%m] + 1
		}
	default:
		return fmt.Errorf("%w: unknown policy %d", ErrBadAssignment, int(policy))
	}
	return nil
}

// AssignByUncertaintyInto assigns sensors to the channels with the most
// uncertain occupancy: channels are ranked by |Pr{busy} - 1/2| ascending
// (binary entropy is maximized at 1/2), and sensors are spread round-robin
// over that ranking. A sensing result is worth the most exactly where the
// belief is least decided.
//
// It writes into caller-owned buffers: out receives the per-sensor channel
// choices (1-based), and order, of length len(busyProbs), is the ranking
// scratch (left holding the channel indices sorted by ascending
// |Pr{busy} - 1/2|). The ranking is a stable insertion sort, so ties keep
// their ascending channel order.
//
//femtovet:borrows out, order, busyProbs
func AssignByUncertaintyInto(out, order []int, busyProbs []float64) error {
	m := len(busyProbs)
	if m == 0 || len(order) != m {
		return fmt.Errorf("%w: order has %d entries for M=%d", ErrBadAssignment, len(order), m)
	}
	for i := range order {
		order[i] = i
	}
	for i := 1; i < m; i++ {
		j := order[i]
		dj := math.Abs(busyProbs[j] - 0.5)
		p := i - 1
		for p >= 0 && math.Abs(busyProbs[order[p]]-0.5) > dj {
			order[p+1] = order[p]
			p--
		}
		order[p+1] = j
	}
	for i := range out {
		out[i] = order[i%m] + 1
	}
	return nil
}
