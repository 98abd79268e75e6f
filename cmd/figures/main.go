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
		fig     = fs.String("fig", "all", "figure id: all (paper figures) | everything (figures + ablations + extensions) | "+strings.Join(ids, " | ")+" | topology")
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
	topology := strings.ToLower(*fig) == "topology"
	if err := checkFlags(fs, topology, *quick); err != nil {
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

	if topology {
		// Solver-level study (no figure object): render the table directly.
		pts, err := experiments.TopologyStudy(*seed, *runs*2, *workers)
		if err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("Theorem 2 / eq. (23) across interference-graph families\n")
		for _, pt := range pts {
			b.WriteString(pt.String())
			b.WriteByte('\n')
		}
		fmt.Fprintln(out, b.String())
		if *dir != "" {
			if err := os.MkdirAll(*dir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*dir, "topology.txt"), []byte(b.String()), 0o644); err != nil {
				return err
			}
		}
		return out.Err()
	}
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

// checkFlags rejects every flag the user set that the run would ignore,
// instead of running without it: -quick sets the scale that -runs and
// -gops would set, and the topology study simulates no GOPs at any scale
// (-runs sets its instance count).
func checkFlags(fs *flag.FlagSet, topology, quick bool) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var path string
	var ignored []string
	switch {
	case topology:
		path, ignored = "-fig topology", []string{"gops", "quick"}
	case quick:
		path, ignored = "-quick", []string{"runs", "gops"}
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s cannot be used with %s", name, path)
		}
	}
	return nil
}
