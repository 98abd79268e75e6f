package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"femtocr/internal/experiments"
)

func TestRunSingleFigureToStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "3", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Fig. 3") {
		t.Fatalf("missing figure title:\n%s", b.String())
	}
}

func TestRunFigureWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "4b", "-quick", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4b.txt", "fig4b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	csv, _ := os.ReadFile(filepath.Join(dir, "fig4b.csv"))
	if !strings.Contains(string(csv), "Proposed_mean") {
		t.Fatalf("csv missing header:\n%s", csv)
	}
}

func TestRunFig4a(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "4a", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lambda_0") {
		t.Fatalf("missing dual curves:\n%s", b.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, id := range []string{"99", "fig3", ""} {
		var b strings.Builder
		if err := run([]string{"-fig", id}, &b); err == nil {
			t.Fatalf("-fig %q accepted", id)
		}
	}
}

// TestRunTopologyTable: the topology study runs through the registry like
// every figure, -runs sets its instance count, and -out writes its table
// and CSV.
func TestRunTopologyTable(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "topology", "-runs", "2", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Theorem 2", "2=path (Fig. 5)", "floor 1/(1+Dmax)", "gain greedy/opt worst"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"topology.txt", "topology.csv"} {
		if _, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunEnginesFigure(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "engines", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Packet-level engine") {
		t.Fatalf("missing engines curve:\n%s", b.String())
	}
}

func TestRunEverythingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "everything", "-quick", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3.txt", "gamma.txt", "capacity.txt", "engines.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("%s missing: %v", want, err)
		}
	}
}

// TestRunQuickKeepsSeedAndWorkers: -quick sets only the scale (2 runs x 3
// GOPs); -seed still picks the replication seeds, and the default seed is
// QuickParams' own.
func TestRunQuickKeepsSeedAndWorkers(t *testing.T) {
	render := func(args ...string) string {
		t.Helper()
		var b strings.Builder
		if err := run(append([]string{"-fig", "3", "-quick"}, args...), &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seed1000 := render("-seed", "1000")
	if render("-seed", "7") == seed1000 {
		t.Fatal("-quick -seed 7 printed the same figure as -quick -seed 1000: the seed was dropped")
	}
	if render() != seed1000 {
		t.Fatal("-quick alone differs from -quick -seed 1000")
	}
	if render("-seed", "1000", "-workers", "1") != seed1000 {
		t.Fatal("-quick -workers 1 changed the figure")
	}
}

// TestRegistryCoverage ties -fig to the figure registry: -h lists exactly
// the ids the registry accepts, in registry order, in the form
// scripts/bench_e2e.sh reads (experiments' TestFigureIDs holds the
// grammar and the registry to results/).
func TestRegistryCoverage(t *testing.T) {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	_, list, ok := strings.Cut(help.String(), "or one of: ")
	list, _, _ = strings.Cut(list, " (default")
	var want []string
	for _, e := range experiments.Registry() {
		want = append(want, e.ID)
	}
	if got := strings.Fields(list); !ok || !slices.Equal(got, want) {
		t.Fatalf("-fig usage lists %q, want the registry's ids %q:\n%s", got, want, help.String())
	}
}

// TestRunRejectsIgnoredFlags: a flag the run would ignore is an error, not
// a silent no-op.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "3", "-quick", "-runs", "5"},
		{"-fig", "3", "-quick", "-gops", "3"},
	} {
		var b strings.Builder
		err := run(args, &b)
		if err == nil || !strings.Contains(err.Error(), "cannot be used with") {
			t.Errorf("%v: err = %v, want a rejected flag", args, err)
		} else if b.Len() != 0 {
			t.Errorf("%v: printed output before rejecting a flag:\n%s", args, b.String())
		}
	}
}
