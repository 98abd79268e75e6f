package sensing

import (
	"errors"
	"fmt"

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
	default:
		return fmt.Sprintf("AssignmentPolicy(%d)", int(p))
	}
}

// ErrBadAssignment is returned for an empty channel set, stochastic
// policies without a stream, and unknown policies.
var ErrBadAssignment = errors.New("sensing: invalid assignment request")

// AssignInto maps each user-sensor to one licensed channel (1-based),
// writing into caller-owned buffers, so per-slot loops allocate nothing:
// out's length gives the sensor count, and perm's the channel count M. The
// stratified policy draws its channel order into perm; the others leave
// it as it is. slot rotates deterministic policies over time; s supplies
// randomness for the stochastic policies and may be nil for RoundRobin.
//
//femtovet:borrows out, perm, s
func AssignInto(out, perm []int, policy AssignmentPolicy, slot int, s *rng.Stream) error {
	m := len(perm)
	if m == 0 {
		return fmt.Errorf("%w: numSensors=%d M=0", ErrBadAssignment, len(out))
	}
	switch policy {
	case RoundRobin:
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
		s.PermInto(perm)
		for i := range out {
			out[i] = perm[i%m] + 1
		}
	default:
		return fmt.Errorf("%w: unknown policy %d", ErrBadAssignment, int(policy))
	}
	return nil
}
