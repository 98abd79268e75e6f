// Package trace records slot-by-slot simulation events for debugging,
// visualization, and post-hoc analysis: channel occupancy and access
// outcomes, and per-user allocations and quality trajectories. Recorders
// are append-only and reduce to a text Summary.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrBadEvent is returned when recording malformed events.
var ErrBadEvent = errors.New("trace: invalid event")

// SlotEvent captures the spectrum-side outcome of one slot.
type SlotEvent struct {
	Slot         int
	IdleChannels int     // truly idle licensed channels
	Accessed     int     // |A(t)|
	ExpectedG    float64 // G_t
	Collisions   int     // accessed channels that were truly busy
}

// UserEvent captures one user's slot outcome.
type UserEvent struct {
	Slot  int
	User  int
	Share float64 // rho on the chosen resource
	PSNR  float64 // W after the slot
}

// Recorder accumulates events. The zero value is ready to use.
type Recorder struct {
	slots []SlotEvent
	users []UserEvent
}

// RecordSlot appends a spectrum event.
func (r *Recorder) RecordSlot(e SlotEvent) error {
	if e.Slot < 0 || e.IdleChannels < 0 || e.Accessed < 0 || e.Collisions < 0 {
		return fmt.Errorf("%w: %+v", ErrBadEvent, e)
	}
	r.slots = append(r.slots, e)
	return nil
}

// RecordUser appends a user event.
func (r *Recorder) RecordUser(e UserEvent) error {
	if e.Slot < 0 || e.User < 0 {
		return fmt.Errorf("%w: %+v", ErrBadEvent, e)
	}
	r.users = append(r.users, e)
	return nil
}

// Slots returns the recorded spectrum events in order.
func (r *Recorder) Slots() []SlotEvent {
	out := make([]SlotEvent, len(r.slots))
	copy(out, r.slots)
	return out
}

// Users returns the recorded user events in order.
func (r *Recorder) Users() []UserEvent {
	out := make([]UserEvent, len(r.users))
	copy(out, r.users)
	return out
}

// Summary aggregates headline statistics from the recording.
type Summary struct {
	Slots          int
	MeanIdle       float64
	MeanAccessed   float64
	MeanExpectedG  float64
	CollisionRate  float64
	UserSlotShares map[int]float64 // mean share per user
	FinalPSNR      map[int]float64 // last observed PSNR per user
}

// Summarize reduces the recording.
func (r *Recorder) Summarize() Summary {
	s := Summary{
		UserSlotShares: make(map[int]float64),
		FinalPSNR:      make(map[int]float64),
	}
	s.Slots = len(r.slots)
	if s.Slots > 0 {
		var idle, acc, g, coll float64
		for _, e := range r.slots {
			idle += float64(e.IdleChannels)
			acc += float64(e.Accessed)
			g += e.ExpectedG
			coll += float64(e.Collisions)
		}
		n := float64(s.Slots)
		s.MeanIdle = idle / n
		s.MeanAccessed = acc / n
		s.MeanExpectedG = g / n
		s.CollisionRate = coll / n
	}
	counts := make(map[int]int)
	for _, e := range r.users {
		s.UserSlotShares[e.User] += e.Share
		counts[e.User]++
		s.FinalPSNR[e.User] = e.PSNR
	}
	for u, total := range s.UserSlotShares {
		s.UserSlotShares[u] = total / float64(counts[u])
	}
	return s
}

// String renders the summary.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d slots, mean idle %.2f, mean accessed %.2f, mean G %.2f, collisions/slot %.3f\n",
		s.Slots, s.MeanIdle, s.MeanAccessed, s.MeanExpectedG, s.CollisionRate)
	users := make([]int, 0, len(s.FinalPSNR))
	for u := range s.FinalPSNR {
		users = append(users, u)
	}
	sort.Ints(users)
	for _, u := range users {
		fmt.Fprintf(&b, "  user %d: mean share %.3f, final PSNR %.2f dB\n",
			u, s.UserSlotShares[u], s.FinalPSNR[u])
	}
	return b.String()
}
