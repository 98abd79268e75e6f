// Command psnrtrace inspects the MGS video model: the built-in sequence
// presets with their eq. (9) rate-quality laws, a GOP's NAL-unit layout at
// a chosen encoding rate, and the decodable-quality staircase as units
// arrive in significance order.
//
// Examples:
//
//	psnrtrace                          # list the sequence presets
//	psnrtrace -seq Bus -rate 0.5       # GOP layout + quality staircase
//	psnrtrace -seq Mobile -rd          # rate-distortion table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"femtocr/internal/cliflag"
	"femtocr/internal/safeio"
	"femtocr/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psnrtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	// Sticky-error writer: output errors surface once, at the end.
	out := safeio.NewWriter(w)
	fs := flag.NewFlagSet("psnrtrace", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		seqName = fs.String("seq", "", "sequence name (empty: list presets)")
		rate    = fs.Float64("rate", 0.5, "encoding rate, Mbps")
		gopSize = fs.Int("gop", 16, "GOP size, frames")
		layers  = fs.Int("layers", 3, "MGS enhancement layers per frame")
		rdTable = fs.Bool("rd", false, "print the rate-distortion table instead of the GOP layout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The preset list (no -seq) reads no other flag, and the
	// rate-distortion table spans one sequence's whole rate range with no
	// GOP layout.
	if err := cliflag.Check(fs,
		cliflag.Rule{When: *seqName == "", Path: "the preset list (no -seq)", Ignored: []string{"rate", "gop", "layers", "rd"}},
		cliflag.Rule{When: *rdTable, Path: "-rd", Ignored: []string{"rate", "gop", "layers"}},
	); err != nil {
		return err
	}

	if *seqName == "" {
		fmt.Fprintf(out, "%-8s  %5s  %6s  %9s  %9s\n", "name", "alpha", "beta", "max rate", "ceiling")
		for _, s := range video.StandardSequences() {
			fmt.Fprintf(out, "%-8s  %5.1f  %6.1f  %6.2f Mb  %6.1f dB\n",
				s.Name, s.RD.Alpha, s.RD.Beta, s.MaxRateMbps, s.MaxPSNR())
		}
		return out.Err()
	}

	seq, err := video.SequenceByName(*seqName)
	if err != nil {
		return err
	}

	if *rdTable {
		fmt.Fprintf(out, "%s rate-distortion (eq. 9: W = %.1f + %.1f R):\n", seq.Name, seq.RD.Alpha, seq.RD.Beta)
		for r := 0.0; r <= seq.MaxRateMbps+1e-9; r += seq.MaxRateMbps / 10 {
			fmt.Fprintf(out, "  %.3f Mbps -> %.2f dB\n", r, seq.RD.PSNR(r))
		}
		return out.Err()
	}

	g, err := video.BuildGOP(seq, *gopSize, *layers, *rate)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s GOP: %d frames, %d NAL units, %d bytes, %.3f Mbps\n",
		seq.Name, *gopSize, len(g.Units), g.TotalBytes(), g.RateMbps())

	fmt.Fprintln(out, "\ntransmission order (significance-first):")
	order := g.TransmissionOrder()
	for i, u := range order {
		if i >= 12 && i < len(order)-3 {
			if i == 12 {
				fmt.Fprintf(out, "  ... %d more units ...\n", len(order)-15)
			}
			continue
		}
		fmt.Fprintf(out, "  #%-3d frame %2d (%s) layer %d  %5d bytes  sig %.4f\n",
			i+1, u.Frame, u.Type, u.Layer, u.SizeBytes, u.Significance)
	}

	fmt.Fprintln(out, "\ndecodable quality vs received units:")
	steps := []float64{0, 0.25, 0.5, 0.75, 1.0}
	for _, frac := range steps {
		n := int(frac * float64(len(order)))
		fmt.Fprintf(out, "  %3.0f%% of units -> %.2f dB\n", frac*100, g.DecodablePSNR(n))
	}
	return out.Err()
}
