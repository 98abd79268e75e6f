package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPaperShapes asserts the paper's shape claims on the checked-in
// results/ files, which scripts/check.sh regenerates byte for byte, so the
// strict comparisons of the _mean columns are deterministic. A change that
// moves results/ and breaks a claim must say why in EXPERIMENTS.md.
func TestPaperShapes(t *testing.T) {
	// Proposed is above both heuristics at every point of every sweep.
	for _, fig := range []string{"fig4b", "fig4c", "fig6a", "fig6b", "fig6c"} {
		c := readCurves(t, fig)
		for i, p := range c["Proposed"] {
			if p <= c["Heuristic 1"][i] || p <= c["Heuristic 2"][i] {
				t.Errorf("%s point %d: Proposed %v not above Heuristic 1 %v and Heuristic 2 %v",
					fig, i, p, c["Heuristic 1"][i], c["Heuristic 2"][i])
			}
		}
	}

	// Fig. 6(a): Proposed > Heuristic 2 > Heuristic 1 at every eta, and
	// every curve is non-increasing in eta.
	c := readCurves(t, "fig6a")
	for i, p := range c["Proposed"] {
		if h1, h2 := c["Heuristic 1"][i], c["Heuristic 2"][i]; !(p > h2 && h2 > h1) {
			t.Errorf("fig6a point %d: want Proposed %v > Heuristic 2 %v > Heuristic 1 %v", i, p, h2, h1)
		}
	}
	for name, ys := range c {
		for i := 1; i < len(ys); i++ {
			if ys[i] > ys[i-1] {
				t.Errorf("fig6a %s rises from %v to %v at point %d", name, ys[i-1], ys[i], i)
			}
		}
	}

	// Fig. 4(b): every curve rises strictly in M, and Proposed gains the
	// most from each added channel.
	c = readCurves(t, "fig4b")
	for name, ys := range c {
		checkStrict(t, "fig4b", name, ys, true)
	}
	for i := 1; i < len(c["Proposed"]); i++ {
		rise := c["Proposed"][i] - c["Proposed"][i-1]
		for _, name := range []string{"Heuristic 1", "Heuristic 2"} {
			if other := c[name][i] - c[name][i-1]; other >= rise {
				t.Errorf("fig4b point %d: %s rises %v dB, Proposed only %v", i, name, other, rise)
			}
		}
	}

	// Fig. 4(c): every curve falls strictly in eta.
	for name, ys := range readCurves(t, "fig4c") {
		checkStrict(t, "fig4c", name, ys, false)
	}

	// Fig. 6(c): Proposed, Heuristic 2 and the upper bound rise strictly in
	// B0. Heuristic 1 is left out: its curve is nearly flat past 0.2 Mbps
	// and falls 0.047 dB from 0.3 to 0.4 Mbps, inside its confidence band,
	// so a strict rise is not a claim these files support for it.
	c = readCurves(t, "fig6c")
	for _, name := range []string{"Proposed", "Heuristic 2", "Upper bound"} {
		if len(c[name]) < 2 {
			t.Fatalf("fig6c: no %s_mean curve", name)
		}
		checkStrict(t, "fig6c", name, c[name], true)
	}

	// Fig. 6(b): Proposed is flat in epsilon (range under 0.5 dB) with its
	// maximum strictly inside the sweep.
	ys := readCurves(t, "fig6b")["Proposed"]
	lo, hi, argmax := ys[0], ys[0], 0
	for i, y := range ys {
		lo = min(lo, y)
		if y > hi {
			hi, argmax = y, i
		}
	}
	if hi-lo >= 0.5 {
		t.Errorf("fig6b Proposed range %v dB, want under 0.5", hi-lo)
	}
	if argmax == 0 || argmax == len(ys)-1 {
		t.Errorf("fig6b Proposed peaks at the sweep's edge (point %d of %d)", argmax+1, len(ys))
	}
}

// checkStrict fails unless ys rises (rising) or falls strictly from point
// to point.
func checkStrict(t *testing.T, fig, name string, ys []float64, rising bool) {
	t.Helper()
	want := "falling"
	if rising {
		want = "rising"
	}
	for i := 1; i < len(ys); i++ {
		step := ys[i] - ys[i-1]
		if (rising && step <= 0) || (!rising && step >= 0) {
			t.Errorf("%s %s steps %+v dB at point %d, want strictly %s", fig, name, step, i, want)
		}
	}
}

// readCurves reads results/<fig>.csv and returns each curve's _mean column
// by curve name, in row order.
func readCurves(t *testing.T, fig string) map[string][]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", fig+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s: %d rows", fig, len(rows))
	}
	curves := map[string][]float64{}
	for col, head := range rows[0] {
		name, ok := strings.CutSuffix(head, "_mean")
		if !ok {
			continue
		}
		for _, row := range rows[1:] {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("%s %s: %v", fig, head, err)
			}
			curves[name] = append(curves[name], v)
		}
	}
	for _, want := range []string{"Proposed", "Heuristic 1", "Heuristic 2"} {
		if len(curves[want]) != len(rows)-1 {
			t.Fatalf("%s: no %s_mean column", fig, want)
		}
	}
	return curves
}
