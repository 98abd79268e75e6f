package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRecorderValidation(t *testing.T) {
	var r Recorder
	if err := r.RecordSlot(SlotEvent{Slot: -1}); !errors.Is(err, ErrBadEvent) {
		t.Fatal("negative slot accepted")
	}
	if err := r.RecordSlot(SlotEvent{Collisions: -1}); !errors.Is(err, ErrBadEvent) {
		t.Fatal("negative collisions accepted")
	}
	if err := r.RecordUser(UserEvent{User: -1}); !errors.Is(err, ErrBadEvent) {
		t.Fatal("negative user accepted")
	}
}

func sampleRecorder(t *testing.T) *Recorder {
	t.Helper()
	var r Recorder
	events := []SlotEvent{
		{Slot: 0, IdleChannels: 4, Accessed: 3, ExpectedG: 2.5, Collisions: 0},
		{Slot: 1, IdleChannels: 2, Accessed: 2, ExpectedG: 1.5, Collisions: 1},
	}
	for _, e := range events {
		if err := r.RecordSlot(e); err != nil {
			t.Fatal(err)
		}
	}
	userEvents := []UserEvent{
		{Slot: 0, User: 0, Share: 0.5, PSNR: 28.8},
		{Slot: 0, User: 1, Share: 1.0, PSNR: 27.4},
		{Slot: 1, User: 0, Share: 0.3, PSNR: 28.8},
		{Slot: 1, User: 1, Share: 0.8, PSNR: 27.9},
	}
	for _, e := range userEvents {
		if err := r.RecordUser(e); err != nil {
			t.Fatal(err)
		}
	}
	return &r
}

func TestRecorderAccessors(t *testing.T) {
	r := sampleRecorder(t)
	if len(r.Slots()) != 2 || len(r.Users()) != 4 {
		t.Fatalf("events: %d slots, %d users", len(r.Slots()), len(r.Users()))
	}
	// Returned slices are copies.
	r.Slots()[0].Slot = 99
	if r.Slots()[0].Slot == 99 {
		t.Fatal("Slots() aliases internal storage")
	}
}

func TestSummarize(t *testing.T) {
	r := sampleRecorder(t)
	s := r.Summarize()
	if s.Slots != 2 {
		t.Fatalf("slots %d", s.Slots)
	}
	if math.Abs(s.MeanIdle-3) > 1e-12 || math.Abs(s.MeanAccessed-2.5) > 1e-12 {
		t.Fatalf("means %v %v", s.MeanIdle, s.MeanAccessed)
	}
	if math.Abs(s.MeanExpectedG-2) > 1e-12 {
		t.Fatalf("mean G %v", s.MeanExpectedG)
	}
	if math.Abs(s.CollisionRate-0.5) > 1e-12 {
		t.Fatalf("collision rate %v", s.CollisionRate)
	}
	if math.Abs(s.UserSlotShares[0]-0.4) > 1e-12 {
		t.Fatalf("user 0 mean share %v", s.UserSlotShares[0])
	}
	if s.FinalPSNR[1] != 27.9 {
		t.Fatalf("user 1 final PSNR %v", s.FinalPSNR[1])
	}
	out := s.String()
	for _, want := range []string{"2 slots", "user 0", "user 1", "27.90 dB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var r Recorder
	s := r.Summarize()
	if s.Slots != 0 || s.MeanIdle != 0 || len(s.FinalPSNR) != 0 {
		t.Fatal("empty summary not zero")
	}
}
