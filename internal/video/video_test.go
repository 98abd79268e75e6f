package video

import (
	"errors"
	"math"
	"testing"
)

func TestRDModelEquation9(t *testing.T) {
	m := RDModel{Alpha: 28.2, Beta: 9.6}
	if got := m.PSNR(0); got != 28.2 {
		t.Fatalf("PSNR(0) = %v, want alpha", got)
	}
	if got := m.PSNR(1); math.Abs(got-37.8) > 1e-12 {
		t.Fatalf("PSNR(1) = %v, want 37.8", got)
	}
	if got := m.PSNR(-1); got != 28.2 {
		t.Fatalf("PSNR(-1) = %v, negative rates must clamp", got)
	}
}

func TestRDModelValidate(t *testing.T) {
	if err := (RDModel{Alpha: 28, Beta: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []RDModel{
		{Alpha: math.NaN(), Beta: 8},
		{Alpha: 28, Beta: 0},
		{Alpha: 28, Beta: -1},
		{Alpha: math.Inf(1), Beta: 8},
		{Alpha: 28, Beta: math.NaN()},
	}
	for _, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrBadModel) {
			t.Errorf("Validate(%+v) = %v, want ErrBadModel", m, err)
		}
	}
}

func TestStandardSequences(t *testing.T) {
	seqs := StandardSequences()
	if len(seqs) < 3 {
		t.Fatalf("only %d presets", len(seqs))
	}
	names := make(map[string]bool)
	for _, s := range seqs {
		if names[s.Name] {
			t.Fatalf("duplicate preset %q", s.Name)
		}
		names[s.Name] = true
		if err := s.RD.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", s.Name, err)
		}
		if s.Width != 352 || s.Height != 288 {
			t.Fatalf("preset %q is not CIF", s.Name)
		}
		if s.MaxRateMbps <= 0 {
			t.Fatalf("preset %q has no saturation rate", s.Name)
		}
		// Plausible PSNR ranges for CIF MGS encodings.
		if s.RD.Alpha < 20 || s.RD.Alpha > 35 {
			t.Fatalf("preset %q alpha %v implausible", s.Name, s.RD.Alpha)
		}
		if s.MaxPSNR() < s.RD.Alpha || s.MaxPSNR() > 50 {
			t.Fatalf("preset %q ceiling %v implausible", s.Name, s.MaxPSNR())
		}
	}
	for _, want := range []string{"Bus", "Mobile", "Harbor"} {
		if !names[want] {
			t.Fatalf("missing paper sequence %q", want)
		}
	}
}

func TestStandardSequencesReturnsCopy(t *testing.T) {
	a := StandardSequences()
	a[0].Name = "mutated"
	b := StandardSequences()
	if b[0].Name == "mutated" {
		t.Fatal("StandardSequences aliases internal state")
	}
}

func TestSequenceByName(t *testing.T) {
	s, err := SequenceByName("Mobile")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "Mobile" {
		t.Fatalf("got %q", s.Name)
	}
	if _, err := SequenceByName("nosuch"); !errors.Is(err, ErrUnknownSequence) {
		t.Fatalf("err = %v, want ErrUnknownSequence", err)
	}
}

func TestPaperTrio(t *testing.T) {
	trio := PaperTrio()
	if trio[0].Name != "Bus" || trio[1].Name != "Mobile" || trio[2].Name != "Harbor" {
		t.Fatalf("trio = %v, %v, %v", trio[0].Name, trio[1].Name, trio[2].Name)
	}
	// High-motion Mobile should have the lowest base quality of the trio,
	// matching the R-D ordering in the SVC literature.
	if !(trio[1].RD.Alpha < trio[0].RD.Alpha && trio[1].RD.Alpha < trio[2].RD.Alpha) {
		t.Fatal("Mobile must have the lowest alpha")
	}
}

func TestProgressRecursion(t *testing.T) {
	seq, _ := SequenceByName("Bus")
	p := NewProgress(seq)
	if p.PSNR() != seq.RD.Alpha {
		t.Fatalf("W^0 = %v, want alpha", p.PSNR())
	}
	p.AddPSNR(2.5)
	p.AddPSNR(1.5)
	if got := p.PSNR(); math.Abs(got-(seq.RD.Alpha+4)) > 1e-12 {
		t.Fatalf("W = %v, want alpha+4", got)
	}
	p.AddPSNR(-3) // ignored
	if got := p.PSNR(); math.Abs(got-(seq.RD.Alpha+4)) > 1e-12 {
		t.Fatal("negative increment changed PSNR")
	}
}

func TestProgressSaturation(t *testing.T) {
	seq, _ := SequenceByName("Bus")
	p := NewProgress(seq)
	p.AddPSNR(1000)
	if got := p.PSNR(); got != seq.MaxPSNR() {
		t.Fatalf("PSNR = %v, want ceiling %v", got, seq.MaxPSNR())
	}
}

func TestProgressGOPAccounting(t *testing.T) {
	seq, _ := SequenceByName("Bus")
	p := NewProgress(seq)
	p.AddPSNR(4)
	first := p.EndGOP()
	if math.Abs(first-(seq.RD.Alpha+4)) > 1e-12 {
		t.Fatalf("first GOP PSNR = %v", first)
	}
	if p.PSNR() != seq.RD.Alpha {
		t.Fatal("EndGOP must reset W to alpha")
	}
	p.AddPSNR(2)
	p.EndGOP()
	if p.CompletedGOPs() != 2 {
		t.Fatalf("CompletedGOPs = %d", p.CompletedGOPs())
	}
	wantMean := (seq.RD.Alpha + 4 + seq.RD.Alpha + 2) / 2
	if math.Abs(p.MeanPSNR()-wantMean) > 1e-12 {
		t.Fatalf("MeanPSNR = %v, want %v", p.MeanPSNR(), wantMean)
	}
}

func TestProgressMeanWithoutGOPs(t *testing.T) {
	seq, _ := SequenceByName("Bus")
	p := NewProgress(seq)
	if p.MeanPSNR() != seq.RD.Alpha {
		t.Fatal("MeanPSNR with no GOPs should be alpha")
	}
}
