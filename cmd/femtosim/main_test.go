package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRunSingle(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-scenario", "single", "-runs", "2", "-gops", "2"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"user 1 (Bus)", "user 2 (Mobile)", "user 3 (Harbor)", "mean Y-PSNR", "collision rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSchemes(t *testing.T) {
	for _, sch := range []string{"proposed", "h1", "h2"} {
		var b strings.Builder
		if err := run([]string{"-scheme", sch, "-gops", "2"}, &b); err != nil {
			t.Fatalf("scheme %s: %v", sch, err)
		}
	}
}

func TestRunInterferingWithBound(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-scenario", "interfering", "-gops", "1", "-bound"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "eq.(23) upper bound") {
		t.Fatalf("missing bound line:\n%s", b.String())
	}
}

func TestRunNonInterfering(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "noninterfering", "-gops", "1"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestRunDualTrace(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-dualtrace", "120", "-gops", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dual-variable trace") {
		t.Fatalf("missing trace:\n%s", b.String())
	}
}

func TestRunEtaOverride(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-eta", "0.4", "-gops", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "eta=0.400") {
		t.Fatalf("eta not applied:\n%s", b.String())
	}
}

// TestRunPriors: every -prior value runs.
func TestRunPriors(t *testing.T) {
	for _, prior := range []string{"stationary", "estimated", "belief"} {
		var b strings.Builder
		if err := run([]string{"-prior", prior, "-gops", "1"}, &b); err != nil {
			t.Fatalf("prior %s: %v", prior, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	metro := []string{"-scenario", "metro", "-metro-fbs", "6", "-gops", "1"}
	cases := [][]string{
		{"-scenario", "nope"},
		{"-scheme", "nope"},
		{"-prior", "nope"},
		{"-eta", "0.99"}, // infeasible with P10=0.3
		{"-eta", "NaN"},
		{"-runs", "-1"},
		{"-runs", "0", "-packets"},
		append([]string{"-runs", "-1"}, metro...),
		{"-dualtrace", "-5", "-gops", "1"},
		{"-ofdm", "-1"},
		append([]string{"-metro-users", "-1"}, metro...),
		append([]string{"-metro-area", "-5"}, metro...),
		append([]string{"-metro-area", "NaN"}, metro...),
		{"-scenario", "metro", "-metro-layout", "grid", "-metro-block", "-2", "-gops", "1"},
		{"-gops", "0"},
		{"-b0", "Inf", "-gops", "1"},
		{"-b1", "Inf", "-gops", "1"},
		// Flags the chosen path cannot honour.
		append([]string{"-dualtrace", "5"}, metro...),
		append([]string{"-trace"}, metro...),
		append([]string{"-packets"}, metro...),
		{"-packets", "-gops", "1", "-prior", "belief"},
		{"-packets", "-gops", "1", "-bound"},
		{"-packets", "-gops", "1", "-dualtrace", "5"},
		{"-packets", "-gops", "1", "-trace"},
		{"-scenario", "interfering", "-scheme", "h1", "-gops", "1", "-bound"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	// Flags that only another engine, scenario or metro layout reads.
	for _, args := range [][]string{
		{"-packets", "-json", "-gops", "1"},
		{"-scenario", "single", "-metro-fbs", "400", "-gops", "1"},
		{"-scenario", "metro", "-metro-layout", "grid", "-metro-fbs", "400", "-metro-area", "50", "-gops", "1"},
		{"-scenario", "metro", "-metro-rows", "9", "-metro-block", "7", "-metro-fbs", "20", "-gops", "1"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil || !strings.Contains(err.Error(), "cannot be used with") {
			t.Errorf("%v: err = %v, want a rejected flag", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-gops", "1", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	start := strings.Index(out, "{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(out[start:]), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"MeanPSNR", "PerUserPSNR", "CollisionRate", "FairnessIndex"} {
		if _, ok := res[key]; !ok {
			t.Fatalf("JSON missing %q", key)
		}
	}
}

// TestRunMetroJSON pins the fields scripts/bench_shard.sh reads from
// `-scenario metro -json`: the folded MeanPSNR and the run's Timing.
func TestRunMetroJSON(t *testing.T) {
	var b strings.Builder
	args := []string{"-scenario", "metro", "-metro-fbs", "24", "-metro-users", "2", "-gops", "1", "-json"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	start := strings.Index(out, "\n{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	// A map keeps the keys exact: jq matches them case-sensitively, a
	// decoded struct would not.
	var res map[string]any
	if err := json.Unmarshal([]byte(out[start:]), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if psnr, ok := res["MeanPSNR"].(float64); !ok || math.IsNaN(psnr) || math.IsInf(psnr, 0) || psnr <= 0 {
		t.Fatalf("MeanPSNR = %v, want a finite PSNR", res["MeanPSNR"])
	}
	timing, _ := res["Timing"].(map[string]any)
	for _, key := range []string{"WallNS", "SumTaskNS", "MaxTaskNS"} {
		if ns, ok := timing[key].(float64); !ok || ns <= 0 {
			t.Fatalf("Timing.%s = %v, want a positive count", key, timing[key])
		}
	}
}

// TestRunMetroBound: the metro path honours -prior and -bound, so its JSON
// reports a bound at or above the folded mean.
func TestRunMetroBound(t *testing.T) {
	var b strings.Builder
	args := []string{"-scenario", "metro", "-metro-fbs", "6", "-gops", "1", "-prior", "belief", "-bound", "-json"}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	start := strings.Index(out, "\n{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(out[start:]), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	mean, _ := res["MeanPSNR"].(float64)
	if bound, ok := res["BoundPSNR"].(float64); !ok || bound == 0 || bound < mean {
		t.Fatalf("BoundPSNR = %v, want a bound at or above MeanPSNR %v", res["BoundPSNR"], mean)
	}
	if !strings.Contains(out, "eq.(23) upper bound") {
		t.Fatalf("missing bound line:\n%s", out)
	}
}
