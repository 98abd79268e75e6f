// Command figures regenerates the paper's evaluation figures and writes
// each as a text table and a CSV file.
//
// Examples:
//
//	figures -fig all -out results            # full paper scale (slow)
//	figures -fig 6a -quick -out results      # one figure at smoke scale
//	figures -fig 3                           # print to stdout only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"femtocr/internal/cliflag"
	"femtocr/internal/experiments"
	"femtocr/internal/profiling"
	"femtocr/internal/safeio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	// Sticky-error writer: report output errors are recorded once and
	// surfaced at the end instead of being dropped per call.
	out := safeio.NewWriter(w)
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(out)
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	paper, quickScale := experiments.PaperParams(), experiments.QuickParams()
	var (
		fig     = fs.String("fig", "all", "figure id: all (the paper's figures), everything (the whole registry), or one of: "+strings.Join(ids, " "))
		runs    = fs.Int("runs", paper.Runs, "independent replications per point")
		gops    = fs.Int("gops", paper.GOPs, "GOPs per run")
		seed    = fs.Uint64("seed", paper.BaseSeed, "base seed")
		quick   = fs.Bool("quick", false, fmt.Sprintf("smoke scale (%d runs x %d GOPs)", quickScale.Runs, quickScale.GOPs))
		workers = fs.Int("workers", 0, "concurrent simulation runs (0: one per CPU); results are identical for any value")
		dir     = fs.String("out", "", "directory for .txt/.csv output (empty: stdout only)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -quick sets the scale that -runs and -gops would set.
	if err := cliflag.Check(fs, cliflag.Rule{When: *quick, Path: "-quick", Ignored: []string{"runs", "gops"}}); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	p := experiments.Params{Runs: *runs, GOPs: *gops, BaseSeed: *seed}
	if *quick {
		p.Runs, p.GOPs = quickScale.Runs, quickScale.GOPs
	}
	p.Parallel.Workers = *workers
	figures, err := experiments.Run(p, *fig)
	if err != nil {
		return err
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
	}
	for _, nf := range figures {
		fmt.Fprintln(out, nf.Figure.Render())
		if *dir != "" {
			txt := filepath.Join(*dir, nf.ID+".txt")
			if err := os.WriteFile(txt, []byte(nf.Figure.Render()), 0o644); err != nil {
				return err
			}
			csv := filepath.Join(*dir, nf.ID+".csv")
			if err := os.WriteFile(csv, []byte(nf.Figure.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s and %s\n\n", txt, csv)
		}
	}
	return out.Err()
}
