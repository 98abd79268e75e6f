package sim

import (
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
)

func frontendFor(t *testing.T, seed uint64, policy sensing.AssignmentPolicy, beliefs bool) *Frontend {
	t.Helper()
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontend(net, rng.New(seed), policy)
	if err != nil {
		t.Fatal(err)
	}
	if beliefs {
		if err := f.setPrior(BeliefPrior); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestFrontendStepInvariants(t *testing.T) {
	f := frontendFor(t, 1, 0, false)
	for slot := 0; slot < 200; slot++ {
		st, err := f.Step(slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Truth) != 8 {
			t.Fatalf("truth has %d channels", len(st.Truth))
		}
		if len(st.Accessed) != len(st.AccessedPA) {
			t.Fatal("accessed/posterior length mismatch")
		}
		for i, ch := range st.Accessed {
			if ch < 1 || ch > 8 {
				t.Fatalf("accessed channel %d out of range", ch)
			}
			if pa := st.AccessedPA[i]; pa < 0 || pa > 1 {
				t.Fatalf("posterior %v out of range", pa)
			}
			if st.Decision.Channels[ch-1].Posterior != st.AccessedPA[i] {
				t.Fatal("AccessedPA does not mirror the decision posteriors")
			}
		}
		// The eq. (6) bound holds for every channel every slot.
		if b := st.Decision.CollisionBound(); b > 0.2+1e-9 {
			t.Fatalf("slot %d: collision bound %v above gamma", slot, b)
		}
	}
	if f.CollisionRate() < 0 || f.CollisionRate() > 1 {
		t.Fatalf("collision rate %v", f.CollisionRate())
	}
}

func TestFrontendDeterminism(t *testing.T) {
	a := frontendFor(t, 7, 0, false)
	b := frontendFor(t, 7, 0, false)
	for slot := 0; slot < 50; slot++ {
		sa, err := a.Step(slot)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Step(slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa.Accessed) != len(sb.Accessed) {
			t.Fatalf("slot %d diverged", slot)
		}
		for i := range sa.Accessed {
			if sa.Accessed[i] != sb.Accessed[i] || sa.AccessedPA[i] != sb.AccessedPA[i] {
				t.Fatalf("slot %d accessed sets diverged", slot)
			}
		}
	}
}

// TestFrontendBeliefsChangePosteriors: belief tracking must actually alter
// the fusion priors after the first slot.
func TestFrontendBeliefsChangePosteriors(t *testing.T) {
	plain := frontendFor(t, 3, 0, false)
	filtered := frontendFor(t, 3, 0, true)
	diverged := false
	for slot := 0; slot < 20; slot++ {
		sp, err := plain.Step(slot)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := filtered.Step(slot)
		if err != nil {
			t.Fatal(err)
		}
		if slot == 0 {
			continue // identical priors on the first slot
		}
		for ch := range sp.Decision.Channels {
			if sp.Decision.Channels[ch].Posterior != sf.Decision.Channels[ch].Posterior {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("belief tracking never changed a posterior")
	}
}
