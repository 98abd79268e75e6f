// Command femtovet runs femtocr's domain-aware static-analysis suite over
// the module and exits nonzero on any finding, so it can gate CI.
//
// Usage:
//
//	femtovet [-list] [dir]
//
// The argument names a directory inside the module (a trailing /... is
// accepted and ignored; the whole module containing it is always loaded so
// cross-package types resolve). Findings print one per line as
// file:line:col: [analyzer] message with module-relative paths. The exit
// status is 0 for a clean tree, 1 for findings, and 2 for usage or load
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"femtocr/internal/analysis"
	"femtocr/internal/safeio"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	out := safeio.NewWriter(stdout)
	errw := safeio.NewWriter(stderr)
	fs := flag.NewFlagSet("femtovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		if out.Err() != nil {
			return 2
		}
		return 0
	}

	if fs.NArg() > 1 {
		fmt.Fprintln(errw, "femtovet: at most one directory argument is supported")
		return 2
	}
	dir := "."
	if fs.NArg() > 0 {
		dir = strings.TrimSuffix(fs.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	}

	mod, err := analysis.LoadModule(dir)
	if err != nil {
		fmt.Fprintln(errw, "femtovet:", err)
		return 2
	}

	diags := analysis.RunAnalyzers(mod, analysis.All())
	for _, d := range diags {
		d.Pos.Filename = mod.RelFile(d.Pos.Filename)
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(out, "femtovet: %d finding(s) in %s (%d packages)\n", len(diags), mod.Path, len(mod.Packages))
	}
	if out.Err() != nil {
		fmt.Fprintln(errw, "femtovet: write:", out.Err())
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
