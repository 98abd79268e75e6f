package video

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func testSeq(t *testing.T) Sequence {
	t.Helper()
	s, err := SequenceByName("Bus")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildGOPValidation(t *testing.T) {
	seq := testSeq(t)
	cases := []struct {
		gop, layers int
		rate        float64
	}{
		{0, 2, 0.5},
		{16, -1, 0.5},
		{16, 2, 0},
		{16, 2, -1},
		{16, 2, math.NaN()},
		{16, 2, math.Inf(1)},
		// Finite rates whose byte budget an int cannot count.
		{16, 2, 1e300},
		{16, 0, math.MaxFloat64},
		// Unit counts past maxGOPUnits, refused before any allocation:
		// one that overflows an int, one whose frame count alone would
		// overflow a slice, and ones just past the cap.
		{1 << 62, 3, 0.5},
		{math.MaxInt, 0, 0.5},
		{16, math.MaxInt, 0.5},
		{maxGOPUnits + 1, 0, 0.5},
		{maxGOPUnits/3 + 1, 2, 0.5},
	}
	for _, c := range cases {
		if _, err := BuildGOP(seq, c.gop, c.layers, c.rate); !errors.Is(err, ErrBadGOP) {
			t.Errorf("BuildGOP(%d, %d, %v) err = %v, want ErrBadGOP", c.gop, c.layers, c.rate, err)
		}
	}
	for _, fps := range []float64{0, math.NaN(), math.Inf(1)} {
		badSeq := seq
		badSeq.FPS = fps
		if _, err := BuildGOP(badSeq, 16, 2, 0.5); !errors.Is(err, ErrBadGOP) {
			t.Errorf("fps %v accepted", fps)
		}
	}
}

// TestBuildGOPLimits: the largest layout BuildGOP accepts has exactly
// maxGOPUnits units, and a rate just inside the byte cap counts its bytes
// in nonnegative unit sizes whose sum does not pass the budget.
func TestBuildGOPLimits(t *testing.T) {
	seq := testSeq(t)
	g, err := BuildGOP(seq, maxGOPUnits/4, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Units) != maxGOPUnits {
		t.Fatalf("units = %d, want %d", len(g.Units), maxGOPUnits)
	}
	budget := 0.99 * maxGOPBytes
	rate := budget * 8 / 1e6 / (16 / seq.FPS)
	g, err = BuildGOP(seq, 16, 2, rate)
	if err != nil {
		t.Fatalf("rate %v: %v", rate, err)
	}
	for _, u := range g.Units {
		if u.SizeBytes < 0 {
			t.Fatalf("frame %d layer %d: %d bytes", u.Frame, u.Layer, u.SizeBytes)
		}
	}
	if total := g.TotalBytes(); total <= 0 || float64(total) > 1.000001*budget {
		t.Fatalf("TotalBytes = %d for a budget of %v bytes", total, budget)
	}
}

func TestBuildGOPStructure(t *testing.T) {
	seq := testSeq(t)
	g, err := BuildGOP(seq, 16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Units) != 16*3 {
		t.Fatalf("units = %d, want 48 (16 frames x 3 layers)", len(g.Units))
	}
	// Frame 0 is I, frames 4/8/12 are P, the rest B.
	for _, u := range g.Units {
		want := BFrame
		switch {
		case u.Frame == 0:
			want = IFrame
		case u.Frame%4 == 0:
			want = PFrame
		}
		if u.Type != want {
			t.Fatalf("frame %d type %v, want %v", u.Frame, u.Type, want)
		}
		if u.SizeBytes < 0 {
			t.Fatalf("negative unit size %d", u.SizeBytes)
		}
	}
}

func TestBuildGOPRateAccuracy(t *testing.T) {
	seq := testSeq(t)
	const target = 0.6
	g, err := BuildGOP(seq, 16, 3, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.RateMbps(); math.Abs(got-target)/target > 0.02 {
		t.Fatalf("GOP rate %v Mbps, want ~%v (within 2%%)", got, target)
	}
}

func TestBuildGOPNoEnhancement(t *testing.T) {
	seq := testSeq(t)
	g, err := BuildGOP(seq, 8, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Units) != 8 {
		t.Fatalf("units = %d, want 8 base-layer units", len(g.Units))
	}
	for _, u := range g.Units {
		if u.Layer != 0 {
			t.Fatal("found enhancement unit with mgsLayers=0")
		}
	}
}

// TestTransmissionOrderBaseFirst: all base-layer units must precede all
// enhancement units; within a layer, anchors (I/P) come before the B frames
// that reference them, each group in display order — the decoding order the
// paper's significance-first transmission needs.
func TestTransmissionOrderBaseFirst(t *testing.T) {
	seq := testSeq(t)
	g, err := BuildGOP(seq, 16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	order := g.TransmissionOrder()
	if len(order) != len(g.Units) {
		t.Fatal("order lost units")
	}
	isAnchor := func(u NALUnit) bool { return u.Type == IFrame || u.Type == PFrame }
	lastLayer := 0
	seenB := false
	lastFrame := -1
	for i, u := range order {
		if u.Layer < lastLayer {
			t.Fatalf("unit %d: layer %d after layer %d", i, u.Layer, lastLayer)
		}
		if u.Layer > lastLayer {
			lastLayer, seenB, lastFrame = u.Layer, false, -1
		}
		if isAnchor(u) && seenB {
			t.Fatalf("unit %d: anchor frame %d after a B frame within layer %d", i, u.Frame, u.Layer)
		}
		if !isAnchor(u) {
			if !seenB {
				lastFrame = -1 // group boundary: anchors -> Bs
			}
			seenB = true
		}
		if u.Frame <= lastFrame {
			t.Fatalf("unit %d: frame %d after frame %d within its group", i, u.Frame, lastFrame)
		}
		lastFrame = u.Frame
	}
}

func TestTransmissionOrderDoesNotMutate(t *testing.T) {
	seq := testSeq(t)
	g, _ := BuildGOP(seq, 8, 1, 0.4)
	first := g.Units[0]
	_ = g.TransmissionOrder()
	if g.Units[0] != first {
		t.Fatal("TransmissionOrder mutated GOP")
	}
}

// TestDecodablePSNRMonotone: receiving more units never lowers quality, and
// the endpoints are alpha (nothing) and the near-target PSNR (everything).
func TestDecodablePSNRMonotone(t *testing.T) {
	seq := testSeq(t)
	g, err := BuildGOP(seq, 16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.DecodablePSNR(0); got != seq.RD.Alpha {
		t.Fatalf("PSNR with nothing received = %v, want alpha", got)
	}
	prev := 0.0
	for n := 0; n <= len(g.Units); n++ {
		cur := g.DecodablePSNR(n)
		if cur+1e-9 < prev {
			t.Fatalf("PSNR decreased at %d units: %v < %v", n, cur, prev)
		}
		prev = cur
	}
	full := g.DecodablePSNR(len(g.Units))
	want := seq.RD.PSNR(g.RateMbps())
	if math.Abs(full-want) > 0.2 {
		t.Fatalf("full PSNR %v, want ~%v", full, want)
	}
	// Out-of-range arguments clamp.
	if g.DecodablePSNR(len(g.Units)+10) != full {
		t.Fatal("over-received should clamp")
	}
	if g.DecodablePSNR(-3) != seq.RD.Alpha {
		t.Fatal("negative received should clamp")
	}
}

func TestFrameTypeString(t *testing.T) {
	if IFrame.String() != "I" || PFrame.String() != "P" || BFrame.String() != "B" {
		t.Fatal("frame type strings wrong")
	}
	if FrameType(9).String() != "FrameType(9)" {
		t.Fatal("unknown frame type string wrong")
	}
}

// TestGOPBudgetConservation: total unit bytes stay within the target budget
// (integer truncation only loses < one byte per unit).
func TestGOPBudgetConservation(t *testing.T) {
	seq := testSeq(t)
	err := quick.Check(func(gopRaw, layersRaw uint8, rateCenti uint16) bool {
		gop := int(gopRaw%32) + 1
		layers := int(layersRaw % 4)
		rate := float64(rateCenti%200+10) / 100
		g, err := BuildGOP(seq, gop, layers, rate)
		if err != nil {
			return false
		}
		budget := rate * 1e6 / 8 * float64(gop) / seq.FPS
		total := float64(g.TotalBytes())
		return total <= budget+1 && total >= budget-float64(len(g.Units))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
