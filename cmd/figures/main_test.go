package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
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
	var b strings.Builder
	if err := run([]string{"-fig", "99"}, &b); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunTopologyTable(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "topology", "-runs", "2", "-out", dir}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Theorem 2", "path (Fig. 5)", "Dmax=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if _, err := os.ReadFile(filepath.Join(dir, "topology.txt")); err != nil {
		t.Fatal(err)
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

// TestRegistryCoverage ties the figure registry to the CLI and to the
// checked-in results: ids are unique, the registry plus the topology table
// is exactly the set of files under results/, and every id -fig has
// accepted resolves to the same output stem.
func TestRegistryCoverage(t *testing.T) {
	seen := map[string]bool{"topology": true}
	for _, e := range experiments.Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*"))
	if err != nil {
		t.Fatal(err)
	}
	stems := map[string]bool{}
	for _, f := range files {
		stems[strings.TrimSuffix(filepath.Base(f), filepath.Ext(f))] = true
	}
	if len(stems) != len(seen) {
		t.Fatalf("results/ stems %v, registry ids + topology %v", stems, seen)
	}
	for id := range seen {
		if !stems[id] {
			t.Fatalf("registry id %q has no file under results/", id)
		}
	}
	var help strings.Builder
	if err := run([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	usage := help.String()
	accepted := map[string]string{
		"3": "fig3", "4a": "fig4a", "4b": "fig4b", "4c": "fig4c", "5": "fig5",
		"6a": "fig6a", "6b": "fig6b", "6c": "fig6c",
		"ablation-belief": "ablation-belief", "ablation-sensor": "ablation-sensor",
		"gamma": "gamma", "engines": "engines", "deadline": "deadline",
		"capacity": "capacity", "frontier": "frontier",
	}
	for id, stem := range accepted {
		entries, err := resolve(id)
		if err != nil {
			t.Fatalf("-fig %s: %v", id, err)
		}
		if len(entries) != 1 || entries[0].ID != stem {
			t.Fatalf("-fig %s resolves to %v, want the single entry %q", id, entries, stem)
		}
		if !strings.Contains(usage, " "+id+" |") {
			t.Fatalf("-fig usage lacks %q:\n%s", id, usage)
		}
	}
	for _, id := range []string{"fig3", "99", "topology", ""} {
		if _, err := resolve(id); err == nil {
			t.Fatalf("resolve(%q) accepted an id that is not a registry figure", id)
		}
	}
	all, err := resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	everything, err := resolve("everything")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 || len(everything) != len(experiments.Registry()) {
		t.Fatalf("all = %d entries, everything = %d; want the 8 paper figures and the whole registry", len(all), len(everything))
	}
}
