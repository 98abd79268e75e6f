package main

import (
	"strings"
	"testing"
)

func TestRunListPresets(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Bus", "Mobile", "Harbor", "alpha", "ceiling"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %q:\n%s", want, b.String())
		}
	}
}

func TestRunGOPLayout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-seq", "Bus", "-rate", "0.5"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Bus GOP", "transmission order", "decodable quality", "100% of units"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// The first unit must be the frame-0 base layer.
	if !strings.Contains(out, "#1   frame  0 (I) layer 0") {
		t.Fatalf("first unit is not the I-frame base layer:\n%s", out)
	}
}

func TestRunRDTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-seq", "Harbor", "-rd"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rate-distortion") {
		t.Fatalf("missing table:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-seq", "nosuch"}, &b); err == nil {
		t.Fatal("unknown sequence accepted")
	}
	if err := run([]string{"-seq", "Bus", "-rate", "0"}, &b); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := run([]string{"-seq", "Bus", "-gop", "0"}, &b); err == nil {
		t.Fatal("zero gop accepted")
	}
	for _, rate := range []string{"NaN", "Inf", "1e300"} {
		if err := run([]string{"-seq", "Bus", "-rate", rate}, &b); err == nil {
			t.Errorf("rate %s accepted", rate)
		}
	}
	// Flags the chosen output would ignore.
	for _, args := range [][]string{
		{"-rate", "9"},
		{"-seq", "Bus", "-rd", "-rate", "9", "-gop", "3"},
	} {
		if err := run(args, &b); err == nil || !strings.Contains(err.Error(), "cannot be used with") {
			t.Errorf("%v: err = %v, want a rejected flag", args, err)
		}
	}
	// Layouts past the NAL-unit cap fail before anything is allocated.
	for _, args := range [][]string{
		{"-gop", "9223372036854775807"},
		{"-gop", "4611686018427387904", "-layers", "3"},
		{"-layers", "9223372036854775807"},
		{"-gop", "65537", "-layers", "0"},
	} {
		if err := run(append([]string{"-seq", "Bus"}, args...), &b); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
