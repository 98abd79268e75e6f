package access

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"femtocr/internal/markov"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
)

func policy(t *testing.T, gamma float64) Policy {
	t.Helper()
	p, err := NewPolicy(gamma)
	if err != nil {
		t.Fatalf("NewPolicy(%v): %v", gamma, err)
	}
	return p
}

func TestNewPolicyValidation(t *testing.T) {
	for _, g := range []float64{0, 0.2, 1} {
		if _, err := NewPolicy(g); err != nil {
			t.Errorf("NewPolicy(%v) unexpected err %v", g, err)
		}
	}
	for _, g := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewPolicy(g); !errors.Is(err, ErrBadGamma) {
			t.Errorf("NewPolicy(%v) err should be ErrBadGamma", g)
		}
	}
}

// TestAccessProbabilityEquation7 checks P_D = min(gamma*eta/(1-P_A), 1).
func TestAccessProbabilityEquation7(t *testing.T) {
	p := policy(t, 0.2)
	cases := []struct {
		prior float64
		pa    float64
		want  float64
	}{
		{0.6, 0.95, 1},    // 1-pa = 0.05 <= gamma*eta = 0.12: always access
		{0.6, 0.88, 1},    // boundary: 1-pa == gamma*eta
		{0.6, 0.5, 0.24},  // 0.12/0.5
		{0.6, 0.0, 0.12},  // certainly busy: access with prob gamma*eta
		{0.6, 0.75, 0.48}, // 0.12/0.25
		{0.6, 1.0, 1},     // certainly idle
		{1.0, 0.5, 0.4},   // always-busy prior reduces to gamma/(1-pa)
		{1.0, 0.8, 1},     // boundary of the prior-free rule
		{0.3, 0.5, 0.12},  // 0.06/0.5
		{0.0, 0.5, 0},     // never-busy prior: no collision budget to spend
	}
	for _, c := range cases {
		if got := p.AccessProbability(c.prior, c.pa); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AccessProbability(%v, %v) = %v, want %v", c.prior, c.pa, got, c.want)
		}
	}
}

// TestCollisionConstraintProperty: (1 - P_A) * P_D <= gamma * eta for every
// prior and posterior — dividing by the prior busy probability eta, this is
// the conditional primary-user protection constraint of eq. (6).
func TestCollisionConstraintProperty(t *testing.T) {
	err := quick.Check(func(gPct, etaPct, paPct uint16) bool {
		gamma := float64(gPct%101) / 100
		eta := float64(etaPct%1001) / 1000
		pa := float64(paPct%1001) / 1000
		p, err := NewPolicy(gamma)
		if err != nil {
			return false
		}
		pd := p.AccessProbability(eta, pa)
		return pd >= 0 && pd <= 1 && (1-pa)*pd <= gamma*eta+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGammaZeroNeverAccessesUncertain(t *testing.T) {
	p := policy(t, 0)
	if got := p.AccessProbability(0.6, 0.7); got != 0 {
		t.Fatalf("gamma=0, P_A=0.7: P_D = %v, want 0", got)
	}
	// A certainly idle channel may still be accessed.
	if got := p.AccessProbability(0.6, 1.0); got != 1 {
		t.Fatalf("gamma=0, P_A=1: P_D = %v, want 1", got)
	}
}

func TestDecideRealizesAccessProbability(t *testing.T) {
	p := policy(t, 0.2)
	s := rng.New(1)
	const n = 200000
	accessed := 0
	var d SlotDecision
	for i := 0; i < n; i++ {
		p.DecideInto([]float64{0.6}, []float64{0.5}, s, &d)
		if d.Channels[0].Accessed {
			accessed++
		}
	}
	// P_D = gamma*eta/(1-pa) = 0.2*0.6/0.5 = 0.24.
	got := float64(accessed) / n
	if math.Abs(got-0.24) > 0.01 {
		t.Fatalf("empirical access rate %v, want ~0.24", got)
	}
}

// TestDecideDefaultsPriorToOne: channels beyond the priors slice fall back to
// the conservative always-busy prior, reproducing the prior-free rule
// gamma/(1-pa).
func TestDecideDefaultsPriorToOne(t *testing.T) {
	p := policy(t, 0.2)
	s := rng.New(2)
	var d SlotDecision
	p.DecideInto(nil, []float64{0.5}, s, &d)
	if got := d.Channels[0].AccessProb; math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("AccessProb with missing prior = %v, want 0.4", got)
	}
	if got := d.Channels[0].Prior; got != 1 {
		t.Fatalf("Prior defaulted to %v, want 1", got)
	}
}

func TestSlotDecisionAggregates(t *testing.T) {
	d := SlotDecision{Channels: []ChannelDecision{
		{Channel: 1, Prior: 0.6, Posterior: 0.9, AccessProb: 1, Accessed: true},
		{Channel: 2, Prior: 0.6, Posterior: 0.5, AccessProb: 0.24, Accessed: false},
		{Channel: 3, Prior: 0.6, Posterior: 0.88, AccessProb: 1, Accessed: true},
	}}
	av := d.AppendAvailable(nil)
	if len(av) != 2 || av[0] != 1 || av[1] != 3 {
		t.Fatalf("AppendAvailable = %v, want [1 3]", av)
	}
	if got := d.ExpectedAvailable(); math.Abs(got-1.78) > 1e-12 {
		t.Fatalf("ExpectedAvailable = %v, want 1.78", got)
	}
	if d.NumAccessed() != 2 {
		t.Fatalf("NumAccessed = %d, want 2", d.NumAccessed())
	}
	// Conditional bounds: ch1 0.1/0.6, ch2 0.5*0.24/0.6 = 0.2, ch3 0.12/0.6 = 0.2.
	if got := d.CollisionBound(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("CollisionBound = %v, want 0.2", got)
	}
}

// TestCollisionBoundSkipsZeroPrior: a channel that is never busy has no
// collision exposure and must not dominate the bound with a 0/0.
func TestCollisionBoundSkipsZeroPrior(t *testing.T) {
	d := SlotDecision{Channels: []ChannelDecision{
		{Channel: 1, Prior: 0, Posterior: 0.5, AccessProb: 0, Accessed: false},
		{Channel: 2, Prior: 0.5, Posterior: 0.9, AccessProb: 1, Accessed: true},
	}}
	if got := d.CollisionBound(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("CollisionBound = %v, want 0.2 (zero-prior channel skipped)", got)
	}
}

func TestEmptySlotDecision(t *testing.T) {
	var d SlotDecision
	if d.AppendAvailable(nil) != nil || d.ExpectedAvailable() != 0 || d.NumAccessed() != 0 || d.CollisionBound() != 0 {
		t.Fatal("empty decision aggregates should be zero")
	}
}

// fuse folds one channel's sensing results into its availability posterior
// through a sensing.Fuser started from the prior eta.
func fuse(t *testing.T, eta float64, obs []sensing.Observation) float64 {
	t.Helper()
	f, err := sensing.NewFuser(eta)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		f.Update(o)
	}
	return f.Posterior()
}

// TestEndToEndCollisionRate runs the full pipeline — Markov occupancy,
// noisy sensing, fusion, access — and verifies the realized conditional
// collision probability stays below gamma. This is the paper's
// primary-user-protection guarantee (eq. 6).
func TestEndToEndCollisionRate(t *testing.T) {
	const (
		m     = 8
		gamma = 0.2
		slots = 30000
	)
	chain, err := markov.NewChain(0.4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	band, err := spectrum.NewBand(m, 0.3, 0.3, chain)
	if err != nil {
		t.Fatal(err)
	}
	det, err := sensing.NewDetector(0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy(t, gamma)
	root := rng.New(12345)
	sim := spectrum.NewSimulator(band, root.Split("occupancy"))
	senseStream := root.Split("sense")
	accessStream := root.Split("access")
	tracker := NewCollisionTracker(m)
	eta := chain.Utilization()
	priors := make([]float64, m)
	for ch := range priors {
		priors[ch] = eta
	}

	for slot := 0; slot < slots; slot++ {
		truth := sim.StepInPlace()
		posteriors := make([]float64, m)
		for ch := 1; ch <= m; ch++ {
			// Three sensing results per channel, as with K=3 users + FBS.
			obs := []sensing.Observation{
				det.Sense(truth[ch-1], senseStream),
				det.Sense(truth[ch-1], senseStream),
				det.Sense(truth[ch-1], senseStream),
			}
			posteriors[ch-1] = fuse(t, eta, obs)
		}
		var d SlotDecision
		pol.DecideInto(priors, posteriors, accessStream, &d)
		if d.CollisionBound() > gamma+1e-9 {
			t.Fatalf("slot %d: collision bound %v exceeds gamma", slot, d.CollisionBound())
		}
		tracker.Record(d, truth)
	}
	if tracker.Slots() != slots {
		t.Fatalf("tracker recorded %d slots, want %d", tracker.Slots(), slots)
	}
	// Allow small sampling slack above gamma.
	if got := tracker.MaxConditionalRate(); got > gamma+0.02 {
		t.Fatalf("realized max conditional collision rate %v exceeds gamma=%v", got, gamma)
	}
	// With imperfect sensing the system must actually be transmitting
	// sometimes on busy channels; a zero rate would mean it never accesses.
	if tracker.MaxConditionalRate() == 0 {
		t.Fatal("collision rate is exactly zero; access rule looks inert")
	}
	// The per-slot diagnostic understates the conditional rate by eta.
	if tracker.MaxRate() >= tracker.MaxConditionalRate() {
		t.Fatalf("per-slot MaxRate %v should sit below conditional %v at eta=%v",
			tracker.MaxRate(), tracker.MaxConditionalRate(), eta)
	}
}

// TestConditionalRateTracksGammaAcrossEta is the regression suite for the
// eq. (6) accounting bug: the conditional collision rate — collisions over
// truly-busy slots — must sit near gamma regardless of the channel
// utilization eta, while the per-slot ratio sits near eta*gamma. Against the
// old per-slot accounting (where the policy spent the whole gamma budget per
// slot and Rate was reported as the bounded quantity) the conditional rate at
// eta=0.3 would read ~gamma/eta = 3x gamma, so this test fails on the old
// code and passes on the fix.
func TestConditionalRateTracksGammaAcrossEta(t *testing.T) {
	const (
		m     = 8
		gamma = 0.2
		slots = 40000
	)
	for _, eta := range []float64{0.3, 0.6, 0.9} {
		eta := eta
		t.Run(trimEta(eta), func(t *testing.T) {
			chain, err := markov.FromUtilization(eta, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			band, err := spectrum.NewBand(m, 0.3, 0.3, chain)
			if err != nil {
				t.Fatal(err)
			}
			det, err := sensing.NewDetector(0.3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			pol := policy(t, gamma)
			root := rng.New(777)
			sim := spectrum.NewSimulator(band, root.Split("occupancy"))
			senseStream := root.Split("sense")
			accessStream := root.Split("access")
			tracker := NewCollisionTracker(m)
			priors := make([]float64, m)
			for ch := range priors {
				priors[ch] = eta
			}
			for slot := 0; slot < slots; slot++ {
				truth := sim.StepInPlace()
				posteriors := make([]float64, m)
				for ch := 1; ch <= m; ch++ {
					obs := []sensing.Observation{
						det.Sense(truth[ch-1], senseStream),
						det.Sense(truth[ch-1], senseStream),
						det.Sense(truth[ch-1], senseStream),
					}
					posteriors[ch-1] = fuse(t, eta, obs)
				}
				var d SlotDecision
				pol.DecideInto(priors, posteriors, accessStream, &d)
				tracker.Record(d, truth)
			}
			// Average over channels to cut sampling noise: each channel is an
			// independent replication of the same (eta, gamma) experiment.
			var condSum, slotSum float64
			for ch := 1; ch <= m; ch++ {
				condSum += tracker.ConditionalRate(ch)
				slotSum += tracker.Rate(ch)
			}
			cond := condSum / m
			perSlot := slotSum / m
			// A calibrated policy spends most of the budget: the conditional
			// rate must sit near gamma — above the eta-diluted per-slot level
			// and at or below gamma (plus sampling slack).
			if cond > gamma+0.02 {
				t.Fatalf("eta=%v: conditional rate %v exceeds gamma=%v", eta, cond, gamma)
			}
			if cond < 0.6*gamma {
				t.Fatalf("eta=%v: conditional rate %v far below gamma=%v; policy too conservative", eta, cond, gamma)
			}
			// The per-slot diagnostic is the eta-diluted version: ~eta*gamma.
			if math.Abs(perSlot-eta*cond) > 0.02 {
				t.Fatalf("eta=%v: per-slot rate %v should approximate eta*conditional = %v",
					eta, perSlot, eta*cond)
			}
			// Guard against the old accounting: the quantity reported as the
			// gamma check must be the conditional one, which strictly exceeds
			// the per-slot ratio whenever channels idle part of the time.
			if eta < 1 && cond <= perSlot {
				t.Fatalf("eta=%v: conditional rate %v should exceed per-slot rate %v", eta, cond, perSlot)
			}
		})
	}
}

func trimEta(eta float64) string {
	switch eta {
	case 0.3:
		return "eta=0.3"
	case 0.6:
		return "eta=0.6"
	default:
		return "eta=0.9"
	}
}

func TestCollisionTrackerPerChannel(t *testing.T) {
	tr := NewCollisionTracker(2)
	busyIdle := spectrum.Occupancy{markov.Busy, markov.Idle}
	bothIdle := spectrum.Occupancy{markov.Idle, markov.Idle}
	d := SlotDecision{Channels: []ChannelDecision{
		{Channel: 1, Prior: 0.5, Posterior: 0.5, AccessProb: 0.2, Accessed: true},
		{Channel: 2, Prior: 0.5, Posterior: 0.9, AccessProb: 1, Accessed: true},
	}}
	tr.Record(d, busyIdle)
	tr.Record(d, busyIdle)
	tr.Record(d, bothIdle)
	// Channel 1: busy in 2 of 3 slots, collided in both busy slots.
	if got := tr.Rate(1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("channel 1 per-slot rate %v, want 2/3", got)
	}
	if got := tr.ConditionalRate(1); got != 1 {
		t.Fatalf("channel 1 conditional rate %v, want 1", got)
	}
	if got := tr.BusySlots(1); got != 2 {
		t.Fatalf("channel 1 busy slots %v, want 2", got)
	}
	// Channel 2: never busy, so no exposure at all.
	if tr.Rate(2) != 0 || tr.ConditionalRate(2) != 0 || tr.BusySlots(2) != 0 {
		t.Fatalf("channel 2 should report zero rates, got per-slot %v conditional %v busy %v",
			tr.Rate(2), tr.ConditionalRate(2), tr.BusySlots(2))
	}
	if tr.MaxRate() != 2.0/3.0 {
		t.Fatalf("MaxRate = %v, want 2/3", tr.MaxRate())
	}
	if tr.MaxConditionalRate() != 1 {
		t.Fatalf("MaxConditionalRate = %v, want 1", tr.MaxConditionalRate())
	}
}

func TestCollisionTrackerEmpty(t *testing.T) {
	tr := NewCollisionTracker(3)
	if tr.Rate(1) != 0 || tr.MaxRate() != 0 || tr.Slots() != 0 {
		t.Fatal("empty tracker should report zeros")
	}
	if tr.ConditionalRate(1) != 0 || tr.MaxConditionalRate() != 0 || tr.BusySlots(1) != 0 {
		t.Fatal("empty tracker should report zero conditional rates")
	}
}
