package video

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadGOP is returned for invalid GOP parameters.
var ErrBadGOP = errors.New("video: invalid GOP parameters")

// FrameType classifies a frame within the hierarchical GOP.
type FrameType int

// Frame types in coding order of importance.
const (
	IFrame FrameType = iota + 1
	PFrame
	BFrame
)

// String names the frame type.
func (f FrameType) String() string {
	switch f {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	case BFrame:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", int(f))
	}
}

// NALUnit is one network-abstraction-layer unit of an MGS stream: the unit
// of granularity at which MGS can truncate the enhancement (the paper notes
// MGS has NAL-unit-based granularity, unlike bit-level FGS).
type NALUnit struct {
	Frame        int       // display index within the GOP
	Type         FrameType // frame the unit belongs to
	Layer        int       // 0 = base layer, 1.. = MGS enhancement layers
	SizeBytes    int
	Significance float64 // larger = more valuable to reconstruction
}

// GOP is one group of pictures: the delivery unit with a deadline of T time
// slots in the paper's model.
type GOP struct {
	Sequence Sequence
	Units    []NALUnit
}

// maxGOPUnits caps a GOP's NAL-unit count, gopSize·(1+mgsLayers): a 3 MB
// layout, far past any real GOP (the paper's has 16 frames).
const maxGOPUnits = 1 << 16

// maxGOPBytes caps a GOP's byte budget so that every unit's size and
// their sum, TotalBytes, fit an int: half the largest int, and at most
// 2^53, up to which a float64 holds every byte count exactly.
const maxGOPBytes = min(1<<53, math.MaxInt/2)

// BuildGOP synthesizes the NAL-unit layout of one GOP at the target rate.
//
// The layout follows a standard hierarchical structure: one I frame, P
// frames every 4th picture, B frames elsewhere, with relative base-layer
// sizes I:P:B of 6:3:1 and the remaining rate split across mgsLayers MGS
// enhancement layers per frame (diminishing size per layer). Significance
// decreases with layer first (base before enhancement) and follows decoding
// order within a layer (anchors before the B frames that reference them).
// It refuses a layout of more than maxGOPUnits (65,536) units, and a rate
// whose byte budget an int cannot count.
func BuildGOP(seq Sequence, gopSize, mgsLayers int, targetRateMbps float64) (GOP, error) {
	if gopSize < 1 {
		return GOP{}, fmt.Errorf("%w: gopSize=%d", ErrBadGOP, gopSize)
	}
	if mgsLayers < 0 {
		return GOP{}, fmt.Errorf("%w: mgsLayers=%d", ErrBadGOP, mgsLayers)
	}
	// Divide rather than multiply, so the check cannot overflow.
	if mgsLayers >= maxGOPUnits || gopSize > maxGOPUnits/(1+mgsLayers) {
		return GOP{}, fmt.Errorf("%w: %d frames of %d layers exceed %d NAL units", ErrBadGOP, gopSize, 1+mgsLayers, maxGOPUnits)
	}
	if !positiveFinite(targetRateMbps) {
		return GOP{}, fmt.Errorf("%w: targetRate=%v Mbps", ErrBadGOP, targetRateMbps)
	}
	if !positiveFinite(seq.FPS) {
		return GOP{}, fmt.Errorf("%w: sequence fps=%v", ErrBadGOP, seq.FPS)
	}

	// Total bytes available for the GOP at the target rate. Every unit
	// holds a share of it, truncated, so bounding it bounds them all.
	gopSeconds := float64(gopSize) / seq.FPS
	totalBytes := targetRateMbps * 1e6 / 8 * gopSeconds
	if totalBytes > maxGOPBytes {
		return GOP{}, fmt.Errorf("%w: targetRate=%v Mbps needs %v bytes per GOP, more than %v", ErrBadGOP, targetRateMbps, totalBytes, float64(maxGOPBytes))
	}

	// Weight per frame for the base layer.
	types := make([]FrameType, gopSize)
	weights := make([]float64, gopSize)
	weightSum := 0.0
	for i := 0; i < gopSize; i++ {
		switch {
		case i == 0:
			types[i] = IFrame
			weights[i] = 6
		case i%4 == 0:
			types[i] = PFrame
			weights[i] = 3
		default:
			types[i] = BFrame
			weights[i] = 1
		}
		weightSum += weights[i]
	}

	// Split the budget: base layer gets ~40%, the MGS layers share the rest
	// with geometrically decreasing sizes (each layer 70% of the previous).
	baseShare := 0.4
	if mgsLayers == 0 {
		baseShare = 1.0
	}
	baseBytes := totalBytes * baseShare
	enhBytes := totalBytes - baseBytes
	layerShare := make([]float64, mgsLayers)
	if mgsLayers > 0 {
		geoSum := 0.0
		w := 1.0
		for l := 0; l < mgsLayers; l++ {
			layerShare[l] = w
			geoSum += w
			w *= 0.7
		}
		for l := range layerShare {
			layerShare[l] = layerShare[l] / geoSum * enhBytes
		}
	}

	units := make([]NALUnit, 0, gopSize*(1+mgsLayers))
	for i := 0; i < gopSize; i++ {
		frac := weights[i] / weightSum
		units = append(units, NALUnit{
			Frame:        i,
			Type:         types[i],
			Layer:        0,
			SizeBytes:    int(baseBytes * frac),
			Significance: significance(0, i, types[i], gopSize),
		})
		for l := 1; l <= mgsLayers; l++ {
			units = append(units, NALUnit{
				Frame:        i,
				Type:         types[i],
				Layer:        l,
				SizeBytes:    int(layerShare[l-1] * frac),
				Significance: significance(l, i, types[i], gopSize),
			})
		}
	}
	return GOP{Sequence: seq, Units: units}, nil
}

// positiveFinite reports whether x is a positive finite number; NaN is not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// significance orders units layer-major (base layer first) and, within a
// layer, in decoding order: anchor frames (I and P) ahead of the B frames
// that reference them, each group by display order. This guarantees the
// significance-first transmission of §III-E never orphans a unit: by the
// time a B frame's data arrives, both of its reference anchors have
// already been sent. Values are normalized to (0, 1].
func significance(layer, frame int, typ FrameType, gopSize int) float64 {
	numAnchors := (gopSize + 3) / 4 // frames 0, 4, 8, ...
	var rank int
	if typ == IFrame || typ == PFrame {
		rank = frame / 4
	} else {
		rank = numAnchors + frame - frame/4 - 1
	}
	return 1 / (1 + float64(layer)*float64(gopSize) + float64(rank))
}

// TotalBytes returns the byte size of the GOP.
func (g GOP) TotalBytes() int {
	total := 0
	for _, u := range g.Units {
		total += u.SizeBytes
	}
	return total
}

// RateMbps returns the GOP's bit rate given the sequence frame rate.
func (g GOP) RateMbps() float64 {
	if g.Sequence.FPS <= 0 || len(g.Units) == 0 {
		return 0
	}
	frames := 0
	for _, u := range g.Units {
		if u.Frame+1 > frames {
			frames = u.Frame + 1
		}
	}
	seconds := float64(frames) / g.Sequence.FPS
	return float64(g.TotalBytes()) * 8 / 1e6 / seconds
}

// TransmissionOrder returns the units sorted by decreasing significance —
// the order in which the paper transmits video packets so the most valuable
// data goes first and overdue low-significance packets are the ones dropped.
// The returned slice is a copy.
func (g GOP) TransmissionOrder() []NALUnit {
	out := make([]NALUnit, len(g.Units))
	copy(out, g.Units)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Significance > out[j].Significance
	})
	return out
}

// DecodablePSNR returns the reconstructed quality under eq. (9) when only
// the first `received` units in transmission order arrive by the deadline:
// the received rate is the delivered fraction of the GOP's total rate.
func (g GOP) DecodablePSNR(received int) float64 {
	order := g.TransmissionOrder()
	if received > len(order) {
		received = len(order)
	}
	if received < 0 {
		received = 0
	}
	got := 0
	for _, u := range order[:received] {
		got += u.SizeBytes
	}
	total := g.TotalBytes()
	if total == 0 {
		return g.Sequence.RD.Alpha
	}
	rate := g.RateMbps() * float64(got) / float64(total)
	psnr := g.Sequence.RD.PSNR(rate)
	if max := g.Sequence.MaxPSNR(); psnr > max {
		return max
	}
	return psnr
}
