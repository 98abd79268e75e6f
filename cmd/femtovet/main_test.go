package main

import (
	"strings"
	"testing"
)

// TestSuiteRunsCleanOnRepo is the CI gate: femtovet over the module must
// exit 0 with no output.
func TestSuiteRunsCleanOnRepo(t *testing.T) {
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"../..."})
	if code != 0 {
		t.Fatalf("femtovet exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Fatalf("expected no findings, got:\n%s", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"randsource", "mapiter", "floateq", "errdrop", "aliascheck", "directives"}
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestFlagValidation: usage errors exit 2 without running the suite — an
// unknown flag, a second directory, and a directory outside any module.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-json", "../..."},
		{"-baseline", "femtovet.baseline.json", "../..."},
		{"../...", "../..."},
		{t.TempDir()},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(&out, &errb, args); code != 2 {
			t.Errorf("run(%v) = %d, want 2\nstderr:\n%s", args, code, errb.String())
		}
	}
}
