package main

import (
	"strings"
	"testing"
)

func TestRunPaperPath(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "3", "-spacing", "18", "-radius", "12"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"FBS 1 -- FBS 2", "FBS 2 -- FBS 3", "Dmax = 2", "1/3 of the optimum",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FBS 1 -- FBS 3") {
		t.Fatal("FBS 1 and 3 must not interfere on the Fig. 5 path")
	}
}

func TestRunIsolated(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "4", "-spacing", "30", "-radius", "12"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Dmax = 0") || !strings.Contains(out, "4 connected component(s)") {
		t.Fatalf("isolated deployment summary wrong:\n%s", out)
	}
}

func TestRunDOT(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "3", "-spacing", "18", "-dot"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "graph interference {") {
		t.Fatalf("not DOT output:\n%s", b.String())
	}
}

func TestRunGrid(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "5", "-grid", "-spacing", "18", "-radius", "12"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "5 FBS") {
		t.Fatalf("grid output wrong:\n%s", b.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "2", "-radius", "0"},
		{"-radius", "Inf"},
		{"-spacing", "NaN"},
		{"-grid", "-n", "4", "-spacing", "Inf"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted:\n%s", args, b.String())
		}
	}
}
