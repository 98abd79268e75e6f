package experiments

import (
	"strings"
	"testing"
)

func TestTopologyStudyValidatesTheorem2(t *testing.T) {
	points, err := TopologyStudy(11, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("families = %d", len(points))
	}
	byName := make(map[string]TopologyPoint)
	for _, p := range points {
		byName[p.Name] = p
		// Theorem 2: measured ratio never below the floor.
		if p.WorstRatio < p.GuaranteedRatio-1e-9 {
			t.Fatalf("%s: worst ratio %v below Theorem 2 floor %v",
				p.Name, p.WorstRatio, p.GuaranteedRatio)
		}
		if p.MeanRatio < p.WorstRatio-1e-12 || p.MeanRatio > 1+1e-9 {
			t.Fatalf("%s: mean ratio %v inconsistent", p.Name, p.MeanRatio)
		}
		// eq. (23): the optimum never exceeds the bound.
		if p.MeanBoundRatio > 1+1e-9 {
			t.Fatalf("%s: optimum above the eq. (23) bound (ratio %v)", p.Name, p.MeanBoundRatio)
		}
	}
	// The isolated family is provably optimal: ratio exactly 1, tight bound.
	iso := byName["isolated (Table II)"]
	if iso.Dmax != 0 || iso.WorstRatio < 1-1e-6 {
		t.Fatalf("isolated family not optimal: %+v", iso)
	}
	// Dmax ordering across families.
	if byName["path (Fig. 5)"].Dmax != 2 || byName["star-4"].Dmax != 3 ||
		byName["complete-4"].Dmax != 3 || byName["cycle-4"].Dmax != 2 {
		t.Fatal("family degrees wrong")
	}
	if !strings.Contains(iso.String(), "Dmax=0") {
		t.Fatalf("String() malformed: %s", iso.String())
	}
}

func TestTopologyStudyValidation(t *testing.T) {
	if _, err := TopologyStudy(1, 0, 0); err == nil {
		t.Fatal("zero instances accepted")
	}
}
