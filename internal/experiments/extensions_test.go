package experiments

import (
	"testing"

	"femtocr/internal/sim"
)

func TestGammaTradeoffShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 3
	p.GOPs = 20
	fig, err := GammaTradeoff(p)
	if err != nil {
		t.Fatal(err)
	}
	psnr := fig.Curve("Proposed Y-PSNR (dB)")
	coll := fig.Curve("Realized collision rate")
	if psnr == nil || coll == nil || psnr.Len() != 5 {
		t.Fatal("curves malformed")
	}
	// Quality must grow with the collision budget.
	_, lo := psnr.At(0)
	_, hi := psnr.At(psnr.Len() - 1)
	if hi.Mean <= lo.Mean {
		t.Fatalf("quality did not grow with gamma: %v -> %v", lo.Mean, hi.Mean)
	}
	// Realized collisions must respect the budget (with sampling slack) and
	// grow with it.
	for i := 0; i < coll.Len(); i++ {
		gamma, c := coll.At(i)
		if c.Mean > gamma+0.08 {
			t.Fatalf("gamma=%v: realized collision %v far above budget", gamma, c.Mean)
		}
	}
	_, cLo := coll.At(0)
	_, cHi := coll.At(coll.Len() - 1)
	if cHi.Mean <= cLo.Mean {
		t.Fatalf("collision rate did not grow with gamma: %v -> %v", cLo.Mean, cHi.Mean)
	}
}

func TestScalabilityGrows(t *testing.T) {
	p := QuickParams()
	p.Runs = 2
	p.GOPs = 2
	fig, err := Scalability(p)
	if err != nil {
		t.Fatal(err)
	}
	bound, prop := fig.Curve("Upper bound"), fig.Curve(sim.Proposed.String())
	if len(fig.Curves) != 4 || bound == nil || prop == nil || prop.Len() != 4 {
		t.Fatalf("want Upper bound and three schemes over 4 sizes, got %d curves", len(fig.Curves))
	}
	if n, _ := prop.At(0); n != 2 {
		t.Fatalf("first N = %v, want 2", n)
	}
	if n, _ := prop.At(3); n != 6 {
		t.Fatalf("last N = %v, want 6", n)
	}
	for i := 0; i < prop.Len(); i++ {
		n, pr := prop.At(i)
		_, b := bound.At(i)
		if pr.Mean < 25 || pr.Mean > 45 {
			t.Fatalf("N=%v proposed %v implausible", n, pr.Mean)
		}
		if b.Mean < pr.Mean-0.2 {
			t.Fatalf("N=%v bound %v below proposed %v", n, b.Mean, pr.Mean)
		}
	}
}

func TestExtensionsValidation(t *testing.T) {
	bad := Params{}
	if _, err := GammaTradeoff(bad); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := Scalability(bad); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestEngineComparisonTracks(t *testing.T) {
	p := QuickParams()
	p.Runs = 3
	p.GOPs = 8
	fig, err := EngineComparison(p)
	if err != nil {
		t.Fatal(err)
	}
	rate := fig.Curve("Rate-based engine")
	pkt := fig.Curve("Packet-level engine")
	if rate == nil || pkt == nil || rate.Len() != 3 || pkt.Len() != 3 {
		t.Fatal("curves malformed")
	}
	for i := 0; i < 3; i++ {
		_, r := rate.At(i)
		_, k := pkt.At(i)
		gap := r.Mean - k.Mean
		if gap < 0 {
			gap = -gap
		}
		if gap > 2.5 {
			t.Fatalf("scheme %d: engines diverge by %v dB", i+1, gap)
		}
	}
}

func TestDeadlineSweepShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 3
	p.GOPs = 10
	fig, err := DeadlineSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	c := fig.Curve("Proposed")
	if c == nil || c.Len() != 4 {
		t.Fatal("curve malformed")
	}
	// Finer scheduling (larger T) must not hurt: the T=20 point should be at
	// least as good as T=2 (more decisions per GOP average out bad slots).
	_, coarse := c.At(0)
	_, fine := c.At(c.Len() - 1)
	if fine.Mean < coarse.Mean-0.3 {
		t.Fatalf("finer deadline %v clearly below coarser %v", fine.Mean, coarse.Mean)
	}
}

func TestUserCapacityShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 2
	p.GOPs = 8
	fig, err := UserCapacity(p)
	if err != nil {
		t.Fatal(err)
	}
	mean := fig.Curve("Proposed mean")
	worst := fig.Curve("Proposed worst user")
	if mean == nil || worst == nil || mean.Len() != 6 {
		t.Fatal("curves malformed")
	}
	// More users sharing the same spectrum: mean quality must not rise.
	_, one := mean.At(0)
	k, six := mean.At(4)
	if k != 6 {
		t.Fatalf("point 4 has K=%v, want 6", k)
	}
	if six.Mean > one.Mean+0.2 {
		t.Fatalf("quality rose with load: K=1 %v -> K=6 %v", one.Mean, six.Mean)
	}
	// Worst user never exceeds the mean.
	for i := 0; i < mean.Len(); i++ {
		_, m := mean.At(i)
		_, w := worst.At(i)
		if w.Mean > m.Mean+1e-9 {
			t.Fatalf("point %d: worst %v above mean %v", i, w.Mean, m.Mean)
		}
	}
}

func TestSchemeFrontierShape(t *testing.T) {
	p := QuickParams()
	p.Runs = 2
	p.GOPs = 6
	fig, err := SchemeFrontier(p)
	if err != nil {
		t.Fatal(err)
	}
	mean := fig.Curve("Mean Y-PSNR (dB)")
	fair := fig.Curve("Jain fairness of gains")
	if mean == nil || fair == nil || mean.Len() != 5 || fair.Len() != 5 {
		t.Fatal("curves malformed")
	}
	for i := 0; i < fair.Len(); i++ {
		if _, f := fair.At(i); f.Mean < 0 || f.Mean > 1+1e-9 {
			t.Fatalf("fairness %v out of range", f.Mean)
		}
	}
}
