package video

import (
	"testing"

	"femtocr/internal/rng"
)

func buildTestGOP(t *testing.T) GOP {
	t.Helper()
	seq, err := SequenceByName("Bus")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGOP(seq, 16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func all(NALUnit) bool  { return true }
func none(NALUnit) bool { return false }

func TestDecodableBytesEndpoints(t *testing.T) {
	g := buildTestGOP(t)
	if got := g.DecodableBytes(all); got != g.TotalBytes() {
		t.Fatalf("full set decodes %d of %d bytes", got, g.TotalBytes())
	}
	if got := g.DecodableBytes(none); got != 0 {
		t.Fatalf("empty set decodes %d bytes", got)
	}
	var empty GOP
	if empty.DecodableBytes(all) != 0 {
		t.Fatal("empty GOP decodes bytes")
	}
}

// TestMissingIFrameKillsGOP: without the I frame's base layer nothing in
// the GOP decodes.
func TestMissingIFrameKillsGOP(t *testing.T) {
	g := buildTestGOP(t)
	got := g.DecodableBytes(func(u NALUnit) bool {
		return !(u.Frame == 0 && u.Layer == 0)
	})
	if got != 0 {
		t.Fatalf("GOP decodes %d bytes without its I frame", got)
	}
}

// TestMissingPFrameBreaksChain: losing an anchor's base layer kills that
// anchor, every later anchor, and the B frames that reference them — but
// frames before the break still decode.
func TestMissingPFrameBreaksChain(t *testing.T) {
	g := buildTestGOP(t)
	// Drop the base layer of the P frame at display index 8.
	received := func(u NALUnit) bool {
		return !(u.Frame == 8 && u.Layer == 0)
	}
	got := g.DecodableBytes(received)
	if got == 0 {
		t.Fatal("everything died; early frames should survive")
	}
	if got >= g.TotalBytes() {
		t.Fatal("nothing was lost")
	}
	// Frames 0..3 (I plus Bs before the frame-4 anchor... note B frames 1-3
	// reference the frame-4 P, which still decodes) should survive, while
	// frames 8..15 are dead. Compare against the explicit survivor set.
	expected := 0
	for _, u := range g.Units {
		switch {
		case u.Frame < 8 && u.Frame != 0 && u.Type == BFrame:
			// B frames 5..7 reference the dead frame-8 anchor.
			if u.Frame >= 5 {
				continue
			}
			expected += u.SizeBytes
		case u.Frame < 8:
			expected += u.SizeBytes
		}
	}
	if got != expected {
		t.Fatalf("decodable %d, expected %d from the survivor set", got, expected)
	}
}

// TestEnhancementNeedsLowerLayers: an MGS layer without its lower layer is
// useless.
func TestEnhancementNeedsLowerLayers(t *testing.T) {
	g := buildTestGOP(t)
	// Receive everything except frame 0 layer 1; layer 2 of frame 0 then
	// contributes nothing.
	withHole := g.DecodableBytes(func(u NALUnit) bool {
		return !(u.Frame == 0 && u.Layer == 1)
	})
	withoutBoth := g.DecodableBytes(func(u NALUnit) bool {
		return !(u.Frame == 0 && u.Layer >= 1)
	})
	if withHole != withoutBoth {
		t.Fatalf("orphaned layer 2 counted: hole %d vs both-missing %d", withHole, withoutBoth)
	}
}

// TestDecodableMonotoneProperty: receiving a superset never decodes less.
func TestDecodableMonotoneProperty(t *testing.T) {
	g := buildTestGOP(t)
	s := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		inSmall := make(map[int]bool)
		inBig := make(map[int]bool)
		for i := range g.Units {
			if s.Bernoulli(0.5) {
				inSmall[i] = true
				inBig[i] = true
			} else if s.Bernoulli(0.5) {
				inBig[i] = true
			}
		}
		idx := func(set map[int]bool) func(NALUnit) bool {
			return func(u NALUnit) bool {
				for i, v := range g.Units {
					if v == u {
						return set[i]
					}
				}
				return false
			}
		}
		small := g.DecodableBytes(idx(inSmall))
		big := g.DecodableBytes(idx(inBig))
		if small > big {
			t.Fatalf("trial %d: subset decodes %d > superset %d", trial, small, big)
		}
	}
}

// TestSignificancePrefixMatchesTransmissionAccounting: receiving the first
// n units in transmission order decodes exactly those units — the paper's
// significance order respects every dependency, so nothing is orphaned.
func TestSignificancePrefixMatchesTransmissionAccounting(t *testing.T) {
	g := buildTestGOP(t)
	order := g.TransmissionOrder()
	for n := 0; n <= len(order); n += 7 {
		got := make(map[NALUnit]bool, n)
		want := 0
		for i := 0; i < n; i++ {
			got[order[i]] = true
			want += order[i].SizeBytes
		}
		dec := g.DecodableBytes(func(u NALUnit) bool { return got[u] })
		if dec != want {
			t.Fatalf("prefix %d: decodable %d != delivered %d (significance order orphaned a unit)", n, dec, want)
		}
	}
}
