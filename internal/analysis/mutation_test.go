package analysis

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests: seed one plausible bug of each class into the real
// package it would land in and prove the matching analyzer — and only it —
// catches it with exactly one finding. Each bug but the floateq one leaves
// every runtime gate green (golden outputs, determinism, -race, the
// AllocsPerRun pins), which is why the analyzer exists. The unmutated
// packages are silent: the suite is proven clean over the whole module by
// cmd/femtovet's TestSuiteRunsCleanOnRepo, so each mutation flips exactly
// one finding.

// edit is one textual replacement; old must occur in the file.
type edit struct{ old, new string }

// mutatePackage type-checks the real package at rel (module-relative) with
// the edits applied to file, under a fresh import path, and runs the whole
// suite over it.
func mutatePackage(t *testing.T, rel, file string, edits ...edit) []Diagnostic {
	t.Helper()
	m := loadTestModule(t)
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	names, err := buildFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	mutated := false
	for _, name := range names {
		name = filepath.Join(dir, name)
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if filepath.Base(name) == file {
			for _, e := range edits {
				if !strings.Contains(src, e.old) {
					t.Fatalf("%s/%s no longer contains %q; update the mutation test", rel, file, e.old)
				}
				src = strings.Replace(src, e.old, e.new, 1)
			}
			mutated = true
		}
		f, err := parser.ParseFile(m.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	if !mutated {
		t.Fatalf("%s has no file %s", rel, file)
	}
	pkg, ix := checkIn(t, m, m.Path+"/"+rel+"mut", files)
	var diags []Diagnostic
	for _, a := range All() {
		diags = append(diags, m.runPass(a, pkg, ix)...)
	}
	return diags
}

// assertSingleFinding requires exactly one finding, from the expected
// analyzer, with the expected message fragment.
func assertSingleFinding(t *testing.T, diags []Diagnostic, analyzer, fragment string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(diags), diags)
	}
	if diags[0].Analyzer != analyzer {
		t.Fatalf("finding came from %s, want %s: %s", diags[0].Analyzer, analyzer, diags[0].Message)
	}
	if !strings.Contains(diags[0].Message, fragment) {
		t.Fatalf("finding %q does not mention %q", diags[0].Message, fragment)
	}
}

// TestMutationBorrowedEscape: comparing the instance's user->FBS
// membership against a kept reference to the caller's slice, instead of
// its hash, lets the session alias memory the caller may refill with
// another instance's shape before the next solve. Every test still passes —
// the engines never change an instance's membership — so aliascheck alone
// catches it.
func TestMutationBorrowedEscape(t *testing.T) {
	diags := mutatePackage(t, "internal/core", "session.go",
		edit{"package core\n", "package core\n\nimport \"slices\"\n"},
		edit{"\tfbsSig      uint64\n", "\tfbsSig      uint64\n\tfbs         []int\n"},
		edit{
			"\tsig := fbsSignature(in.FBS)\n\tif k != s.users || n != s.fbss || sig != s.fbsSig {\n\t\ts.users, s.fbss, s.fbsSig = k, n, sig\n",
			"\tif k != s.users || n != s.fbss || !slices.Equal(in.FBS, s.fbs) {\n\t\ts.users, s.fbss, s.fbs = k, n, in.FBS\n",
		},
	)
	assertSingleFinding(t, diags, "aliascheck", `borrowed parameter "in" stored into a receiver field`)
}

// TestMutationUnsortedTraceUsers: dropping the sort after trace.Summary's
// map range leaks Go's randomized map order into femtosim's per-user trace
// lines; the runtime tests check which users a summary names, not their
// order.
func TestMutationUnsortedTraceUsers(t *testing.T) {
	diags := mutatePackage(t, "internal/trace", "trace.go",
		edit{"\t\"sort\"\n", ""},
		edit{"\tsort.Ints(users)\n", ""})
	assertSingleFinding(t, diags, "mapiter", "append to users inside map iteration")
}

// TestMutationDroppedWriteError: discarding the CSV write error makes a
// full disk produce a truncated results file that looks finished.
func TestMutationDroppedWriteError(t *testing.T) {
	diags := mutatePackage(t, "cmd/figures", "main.go", edit{
		"\t\t\tif err := os.WriteFile(csv, []byte(nf.Figure.CSV()), 0o644); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n",
		"\t\t\tos.WriteFile(csv, []byte(nf.Figure.CSV()), 0o644)\n",
	})
	assertSingleFinding(t, diags, "errdrop", "error result of os.WriteFile is silently discarded")
}

// TestMutationUnseededDraw: drawing the random sensor assignment from
// math/rand/v2 instead of the run's stream makes RandomAssign runs
// irreproducible, and no golden output uses that policy.
func TestMutationUnseededDraw(t *testing.T) {
	diags := mutatePackage(t, "internal/sensing", "assignment.go",
		edit{"\t\"math\"\n", "\t\"math\"\n\t\"math/rand/v2\"\n"},
		edit{"\t\t\tout[i] = s.IntN(m) + 1\n", "\t\t\tout[i] = rand.IntN(m) + 1\n"},
	)
	assertSingleFinding(t, diags, "randsource", "import of math/rand/v2 outside internal/rng")
}

// TestMutationExactWaterfillStop: stopping waterfillGuided's price
// bisection on an exact hi == lo instead of its relative width is the
// classic float-equality bug. Unlike the other mutations it is also caught
// at runtime: the bisection then runs on past the 1e-12 width, and
// FuzzWaterfill's seeds and TestGoldenOutputs see the moved prices.
func TestMutationExactWaterfillStop(t *testing.T) {
	diags := mutatePackage(t, "internal/core", "waterfill.go",
		edit{"if hi-lo <= 1e-12*hi {", "if hi == lo {"})
	assertSingleFinding(t, diags, "floateq", "exact floating-point == comparison")
}
