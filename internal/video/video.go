// Package video models H.264/SVC medium grain scalable (MGS) video streams
// as used in the paper's §III-E.
//
// The paper reduces reconstructed video quality to the affine rate-quality
// model of eq. (9): W(R) = alpha + beta*R, where W is the average luma PSNR
// in dB and R the received rate in Mbps, with (alpha, beta) fitted per
// sequence and codec. This package provides that model, presets calibrated
// to published JSVM R-D results for the standard CIF sequences the paper
// streams (Bus, Mobile, Harbor), the per-GOP delivery-deadline accounting
// that the optimization's W-recursion implements, and a synthetic GOP/NAL
// packetization layer for the packet-level examples.
package video

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnknownSequence is returned by SequenceByName for unknown names.
var ErrUnknownSequence = errors.New("video: unknown sequence")

// ErrBadModel is returned for invalid rate-distortion parameters.
var ErrBadModel = errors.New("video: invalid rate-distortion model")

// RDModel is the paper's eq. (9): PSNR(R) = Alpha + Beta*R with R in Mbps.
// Alpha is the base-layer quality and Beta the MGS enhancement efficiency in
// dB per Mbps.
type RDModel struct {
	Alpha float64
	Beta  float64
}

// Validate checks the model is usable: finite Alpha, positive finite Beta.
func (m RDModel) Validate() error {
	if math.IsNaN(m.Alpha) || math.IsInf(m.Alpha, 0) {
		return fmt.Errorf("%w: alpha=%v", ErrBadModel, m.Alpha)
	}
	if math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) || m.Beta <= 0 {
		return fmt.Errorf("%w: beta=%v", ErrBadModel, m.Beta)
	}
	return nil
}

// PSNR returns W(R) for a received rate in Mbps.
func (m RDModel) PSNR(rateMbps float64) float64 {
	if rateMbps < 0 {
		rateMbps = 0
	}
	return m.Alpha + m.Beta*rateMbps
}

// Sequence describes one MGS-encoded test sequence.
type Sequence struct {
	Name        string
	Width       int
	Height      int
	FPS         float64
	RD          RDModel
	MaxRateMbps float64 // rate at which the MGS enhancement saturates
}

// MaxPSNR returns the PSNR at the saturation rate, the quality ceiling of
// the encoding.
func (s Sequence) MaxPSNR() float64 { return s.RD.PSNR(s.MaxRateMbps) }

// Standard CIF test sequences with (alpha, beta) fitted over the low-rate
// operating region the paper's channels provide (roughly 0.1-0.8 Mbps),
// where the MGS rate-distortion curve is steepest. The anchors follow
// published H.264/SVC MGS results (Wien, Schwarz & Oelbaum 2007, and the
// JSVM reference software): high-motion sequences (Bus, Mobile) have a
// lower intercept and a steeper slope than low-complexity ones.
var standardSequences = []Sequence{
	{Name: "Bus", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 28.6, Beta: 15.8}, MaxRateMbps: 0.55},
	{Name: "Mobile", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 26.8, Beta: 17.2}, MaxRateMbps: 0.60},
	{Name: "Harbor", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 27.9, Beta: 13.6}, MaxRateMbps: 0.65},
	{Name: "Foreman", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 31.2, Beta: 14.9}, MaxRateMbps: 0.45},
	{Name: "Crew", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 29.8, Beta: 12.8}, MaxRateMbps: 0.55},
	{Name: "City", Width: 352, Height: 288, FPS: 30, RD: RDModel{Alpha: 29.1, Beta: 13.9}, MaxRateMbps: 0.50},
}

// StandardSequences returns the built-in sequence presets. The slice is a
// copy; callers may modify it freely.
func StandardSequences() []Sequence {
	out := make([]Sequence, len(standardSequences))
	copy(out, standardSequences)
	return out
}

// SequenceByName looks up a preset by case-sensitive name.
func SequenceByName(name string) (Sequence, error) {
	for _, s := range standardSequences {
		if s.Name == name {
			return s, nil
		}
	}
	return Sequence{}, fmt.Errorf("%w: %q", ErrUnknownSequence, name)
}

// PaperTrio returns the three sequences streamed in the paper's single-FBS
// scenario, in user order: Bus to user 1, Mobile to user 2, Harbor to user 3.
func PaperTrio() [3]Sequence {
	bus, _ := SequenceByName("Bus")
	mobile, _ := SequenceByName("Mobile")
	harbor, _ := SequenceByName("Harbor")
	return [3]Sequence{bus, mobile, harbor}
}

// Progress tracks the quality of one user's video over a GOP, implementing
// the paper's W-recursion: W^0 = alpha and W^t = W^{t-1} + delivered PSNR
// increments. Quality is capped at the sequence's saturation ceiling.
type Progress struct {
	seq  Sequence
	psnr float64
	gops int
	sum  float64
}

// NewProgress starts tracking a sequence at its base quality.
func NewProgress(seq Sequence) *Progress {
	return &Progress{seq: seq, psnr: seq.RD.Alpha}
}

// PSNR returns the current W^t.
func (p *Progress) PSNR() float64 { return p.psnr }

// AddPSNR adds a quality increment (beta * delivered rate), saturating at
// the encoding ceiling. Negative increments are ignored: receiving data
// never hurts quality under eq. (9).
func (p *Progress) AddPSNR(inc float64) {
	if inc <= 0 {
		return
	}
	p.psnr += inc
	if max := p.seq.MaxPSNR(); p.psnr > max {
		p.psnr = max
	}
}

// EndGOP records the finished GOP's final PSNR (the W^T sample the paper
// averages) and resets W to alpha for the next GOP.
func (p *Progress) EndGOP() float64 {
	final := p.psnr
	p.gops++
	p.sum += final
	p.psnr = p.seq.RD.Alpha
	return final
}

// CompletedGOPs returns the number of finished GOPs.
func (p *Progress) CompletedGOPs() int { return p.gops }

// MeanPSNR returns the average final PSNR over completed GOPs, or the base
// quality when none has completed.
func (p *Progress) MeanPSNR() float64 {
	if p.gops == 0 {
		return p.seq.RD.Alpha
	}
	return p.sum / float64(p.gops)
}
