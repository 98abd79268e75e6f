package experiments

import "testing"

func TestAblationBeliefShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 3
	p.GOPs = 6
	fig, err := AblationBelief(p)
	if err != nil {
		t.Fatal(err)
	}
	st := fig.Curve("Stationary prior (paper)")
	fl := fig.Curve("Belief filter")
	if st == nil || fl == nil || st.Len() != 4 || fl.Len() != 4 {
		t.Fatalf("curves malformed: %v", fig.Curves)
	}
	// At the slowest mixing point the filter should not be worse.
	_, sSlow := st.At(0)
	_, fSlow := fl.At(0)
	if fSlow.Mean < sSlow.Mean-0.3 {
		t.Fatalf("filter %v clearly worse than stationary %v at slow mixing",
			fSlow.Mean, sSlow.Mean)
	}
}

func TestAblationSensorPolicyShape(t *testing.T) {
	p := QuickParams()
	fig, err := AblationSensorPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	c := fig.Curve("Proposed")
	if c == nil || c.Len() != 3 {
		t.Fatalf("curve malformed")
	}
	for i := 0; i < c.Len(); i++ {
		_, pt := c.At(i)
		if pt.Mean < 25 || pt.Mean > 45 {
			t.Fatalf("policy %d PSNR %v implausible", i+1, pt.Mean)
		}
	}
}

func TestAblationValidation(t *testing.T) {
	bad := Params{Runs: 0, GOPs: 1}
	if _, err := AblationBelief(bad); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := AblationSensorPolicy(bad); err == nil {
		t.Fatal("bad params accepted")
	}
}
