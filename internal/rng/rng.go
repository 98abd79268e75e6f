// Package rng provides deterministic, splittable pseudo-random streams for
// reproducible simulations.
//
// Every stochastic component of the simulator (channel occupancy, sensing
// errors, fading, access decisions) draws from its own Stream, derived from a
// single root seed and a string label. Two simulation runs with the same root
// seed therefore produce identical sample paths regardless of the order in
// which components consume randomness, and changing one component's draw
// pattern does not perturb the others.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

// Stream is a deterministic source of pseudo-random variates.
//
// A Stream is not safe for concurrent use; derive one Stream per goroutine
// with Split.
type Stream struct {
	rand  *rand.Rand
	seed1 uint64
	seed2 uint64
}

// New returns a Stream rooted at the given seed.
func New(seed uint64) *Stream {
	return fromSeeds(seed, seed^0x9e3779b97f4a7c15)
}

// fromSeeds builds a Stream from a 128-bit seed pair using PCG.
func fromSeeds(s1, s2 uint64) *Stream {
	return &Stream{
		rand:  rand.New(rand.NewPCG(s1, s2)),
		seed1: s1,
		seed2: s2,
	}
}

// Split derives an independent child Stream identified by label. Splitting is
// a pure function of the parent's seeds and the label: it does not consume
// randomness from the parent, so sibling streams are stable under reordering.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New128a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], s.seed1)
	binary.LittleEndian.PutUint64(buf[8:16], s.seed2)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	sum := h.Sum(nil)
	return fromSeeds(
		binary.LittleEndian.Uint64(sum[0:8]),
		binary.LittleEndian.Uint64(sum[8:16]),
	)
}

// SplitIndex derives an independent child Stream identified by an integer,
// convenient for per-user or per-channel streams.
func (s *Stream) SplitIndex(label string, index int) *Stream {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(index))
	return s.Split(label + ":" + string(buf[:]))
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rand.Float64() }

// IntN returns a uniform integer in [0, n). n must be positive.
func (s *Stream) IntN(n int) int { return s.rand.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rand.Uint64() }

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rand.Float64() < p
}

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rand.NormFloat64()
}

// ExpGain returns a unit-mean exponential variate, the power gain of a
// Rayleigh-fading channel.
func (s *Stream) ExpGain() float64 { return s.rand.ExpFloat64() }

// PermInto fills p with a random permutation of [0, len(p)), for hot loops
// that reuse one buffer. It returns math/rand/v2's Perm(len(p)) and
// consumes the identical variate sequence — Perm is a Fisher-Yates shuffle
// drawing IntN(i+1) for i = n-1..1 — so sample paths match the library's
// allocating Perm byte for byte.
//
//femtovet:borrows p
func (s *Stream) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.rand.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
