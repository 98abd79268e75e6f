// Package belief implements a per-channel occupancy belief filter, an
// extension of the paper's sensing model: instead of resetting the fusion
// prior to the stationary utilization eta every slot (eq. (2)), the filter
// propagates the previous slot's posterior through the channel's Markov
// transition kernel, yielding the exact conditional busy probability given
// the whole sensing history.
//
// Prediction step (between slots):
//
//	Pr{busy_t} = Pr{busy_{t-1}|history} * (1 - P10) + Pr{idle_{t-1}|history} * P01
//
// The sharper priors raise the availability posteriors on genuinely idle
// channels, which lets the access rule of eq. (7) admit more transmissions
// at the same collision budget. The ablation experiments quantify the gain.
package belief

import (
	"errors"
	"fmt"

	"femtocr/internal/spectrum"
)

// ErrBadChannel is returned for out-of-range channel indices.
var ErrBadChannel = errors.New("belief: channel out of range")

// Tracker filters the occupancy belief of every licensed channel.
type Tracker struct {
	band *spectrum.Band
	busy []float64 // Pr{busy} per channel, before the current slot's sensing
}

// NewTracker starts at the stationary distribution, matching the paper's
// prior on the first slot.
func NewTracker(band *spectrum.Band) *Tracker {
	t := &Tracker{
		band: band,
		busy: make([]float64, band.M()),
	}
	for ch := range t.busy {
		t.busy[ch] = band.Utilization()
	}
	return t
}

// Predict advances every channel's belief one slot through the occupancy
// chain's transition kernel. Call once at the start of each slot, before
// sensing.
func (t *Tracker) Predict() {
	c := t.band.Chain()
	for ch, b := range t.busy {
		t.busy[ch] = b*(1-c.P10()) + (1-b)*c.P01()
	}
}

// PriorBusy returns the pre-sensing busy probability of channel ch
// (1-based) — the eta to hand the fusion of eqs. (2)-(4) this slot.
func (t *Tracker) PriorBusy(ch int) (float64, error) {
	if ch < 1 || ch > len(t.busy) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadChannel, ch, len(t.busy))
	}
	return t.busy[ch-1], nil
}

// Observe stores the post-sensing availability posterior P_A of channel ch,
// closing the filter loop for the next Predict.
func (t *Tracker) Observe(ch int, availability float64) error {
	if ch < 1 || ch > len(t.busy) {
		return fmt.Errorf("%w: %d of %d", ErrBadChannel, ch, len(t.busy))
	}
	if availability < 0 {
		availability = 0
	}
	if availability > 1 {
		availability = 1
	}
	t.busy[ch-1] = 1 - availability
	return nil
}
