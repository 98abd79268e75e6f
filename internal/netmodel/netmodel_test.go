package netmodel

import (
	"errors"
	"math"
	"testing"

	"femtocr/internal/video"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.M != 8 || cfg.P01 != 0.4 || cfg.P10 != 0.3 || cfg.Gamma != 0.2 ||
		cfg.Eps != 0.3 || cfg.Delta != 0.3 || cfg.T != 10 {
		t.Fatalf("defaults deviate from §V: %+v", cfg)
	}
	n, err := NewNetwork(cfg, PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n.GOPSize != 16 {
		t.Fatalf("GOP size %d, want 16 frames", n.GOPSize)
	}
	if got := cfg.Utilization(); math.Abs(got-0.4/0.7) > 1e-12 {
		t.Fatalf("eta = %v, want 4/7", got)
	}
}

func TestWithUtilization(t *testing.T) {
	cfg := DefaultConfig()
	for _, eta := range []float64{0.3, 0.5, 0.7} {
		c2, err := cfg.WithUtilization(eta)
		if err != nil {
			t.Fatal(err)
		}
		if got := c2.Utilization(); math.Abs(got-eta) > 1e-12 {
			t.Fatalf("eta = %v, want %v", got, eta)
		}
		if c2.P10 != cfg.P10 {
			t.Fatal("P10 must stay fixed")
		}
	}
	if _, err := cfg.WithUtilization(0.99); err == nil {
		t.Fatal("infeasible eta accepted")
	}
}

func TestPaperSingleFBS(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n.NumFBS != 1 || n.K() != 3 {
		t.Fatalf("N=%d K=%d, want 1 and 3", n.NumFBS, n.K())
	}
	if n.Graph.NumEdges() != 0 {
		t.Fatal("single FBS cannot interfere")
	}
	wantSeqs := []string{"Bus", "Mobile", "Harbor"}
	for i, u := range n.Users {
		if u.Seq.Name != wantSeqs[i] {
			t.Fatalf("user %d streams %q, want %q", i, u.Seq.Name, wantSeqs[i])
		}
		if u.FBS != 1 {
			t.Fatalf("user %d served by FBS %d", i, u.FBS)
		}
	}
}

// TestLinkQualityOrdering: on average femto links must be clearly stronger
// than the macro link — the premise of femtocell deployment. Individual
// users can deviate because of shadowing.
func TestLinkQualityOrdering(t *testing.T) {
	cfg := DefaultConfig()
	var fbsLoss, mbsLoss float64
	count := 0
	for seed := uint64(1); seed <= 30; seed++ {
		cfg.Seed = seed
		n, err := NewNetwork(cfg, PaperSingleSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range n.Users {
			fl, ml := u.FBSLink.LossProbability(), u.MBSLink.LossProbability()
			if fl < 0 || fl > 1 || ml < 0 || ml > 1 {
				t.Fatalf("user %d: degenerate losses %v, %v", u.ID, fl, ml)
			}
			fbsLoss += fl
			mbsLoss += ml
			count++
		}
	}
	fbsLoss /= float64(count)
	mbsLoss /= float64(count)
	if fbsLoss >= mbsLoss {
		t.Fatalf("mean FBS loss %v >= mean MBS loss %v", fbsLoss, mbsLoss)
	}
	if fbsLoss > 0.35 {
		t.Fatalf("mean femto loss %v too high", fbsLoss)
	}
	if mbsLoss < 0.1 || mbsLoss > 0.8 {
		t.Fatalf("mean macro loss %v outside plausible band", mbsLoss)
	}
}

func TestPaperInterfering(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n.NumFBS != 3 || n.K() != 9 {
		t.Fatalf("N=%d K=%d, want 3 and 9", n.NumFBS, n.K())
	}
	// Fig. 5: path graph 1-2-3.
	if !n.Graph.HasEdge(0, 1) || !n.Graph.HasEdge(1, 2) || n.Graph.HasEdge(0, 2) {
		t.Fatalf("interference graph is not the Fig. 5 path:\n%s", n.Graph)
	}
	if n.Graph.MaxDegree() != 2 {
		t.Fatalf("Dmax = %d, want 2", n.Graph.MaxDegree())
	}
	for i := 1; i <= 3; i++ {
		if got := len(n.UsersOf(i)); got != 3 {
			t.Fatalf("FBS %d serves %d users, want 3", i, got)
		}
	}
}

func TestNonInterfering(t *testing.T) {
	trio := video.PaperTrio()
	n, err := NewNetwork(DefaultConfig(), NonInterferingSpec([][]video.Sequence{trio[:], trio[:]}))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumFBS != 2 || n.Graph.NumEdges() != 0 {
		t.Fatalf("non-interfering deployment has %d edges", n.Graph.NumEdges())
	}
}

func TestPlacementDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewNetwork(cfg, PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(cfg, PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Users {
		if a.Users[i].Pos != b.Users[i].Pos {
			t.Fatalf("user %d placed differently across builds with same seed", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c, err := NewNetwork(cfg2, PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Users {
		if a.Users[i].Pos == c.Users[i].Pos {
			same++
		}
	}
	if same == len(a.Users) {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestValidateRejectsBadNetworks(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func(*Network)
	}{
		{"nil band", func(n *Network) { n.Band = nil }},
		{"zero fbs", func(n *Network) { n.NumFBS = 0 }},
		{"graph mismatch", func(n *Network) { n.NumFBS = 2 }},
		{"no users", func(n *Network) { n.Users = nil }},
		{"bad gamma", func(n *Network) { n.Gamma = 1.5 }},
		{"bad T", func(n *Network) { n.T = 0 }},
		{"bad GOP", func(n *Network) { n.GOPSize = 0 }},
		{"user bad fbs", func(n *Network) { n.Users[0].FBS = 5 }},
		{"user bad video", func(n *Network) { n.Users[0].Seq.RD.Beta = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cp := *n
			cp.Users = append([]User(nil), n.Users...)
			c.mod(&cp)
			if err := cp.Validate(); err == nil {
				t.Fatal("invalid network accepted")
			}
		})
	}
}

func TestBuildRejectsMismatchedGroups(t *testing.T) {
	trio := video.PaperTrio()
	_, err := NewNetwork(DefaultConfig(), InterferingPathSpec([][]video.Sequence{trio[:]}))
	if err != nil {
		t.Fatal(err) // one group is fine
	}
	cfg := DefaultConfig()
	cfg.M = 0
	if _, err := NewNetwork(cfg, PaperSingleSpec()); err == nil {
		t.Fatal("M=0 accepted")
	}
	cfg = DefaultConfig()
	cfg.Eps = 1.0
	if _, err := NewNetwork(cfg, PaperSingleSpec()); err == nil {
		t.Fatal("epsilon=1 accepted")
	}
	cfg = DefaultConfig()
	cfg.P01 = -1
	if _, err := NewNetwork(cfg, PaperSingleSpec()); err == nil {
		t.Fatal("bad Markov chain accepted")
	}
}

func TestUsersInsideCoverage(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), PaperInterferingSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range n.Users {
		// Users are placed inside their femtocell, so the FBS distance is
		// at most the coverage radius.
		center := 1.5 * femtoRadius * float64(u.FBS-1)
		d := math.Hypot(u.Pos.X-center, u.Pos.Y)
		if d > femtoRadius+1e-9 {
			t.Fatalf("user %d at distance %v from its FBS (radius %v)", u.ID, d, femtoRadius)
		}
	}
}

func TestErrBadNetworkWrapped(t *testing.T) {
	n, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	n.Gamma = -1
	if err := n.Validate(); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("err = %v, want ErrBadNetwork", err)
	}
}

func TestOFDMLinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OFDMSubcarriers = 16
	n, err := NewNetwork(cfg, PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range n.Users {
		if u.FBSLink.Model().Name() == "rayleigh" {
			t.Fatal("OFDM config still built Rayleigh links")
		}
		p := u.FBSLink.LossProbability()
		if p < 0 || p > 1 {
			t.Fatalf("OFDM loss probability %v", p)
		}
	}
	// Frequency diversity: at the same calibration, femto links should be
	// at least as reliable as under flat Rayleigh on average.
	flat, err := NewNetwork(DefaultConfig(), PaperSingleSpec())
	if err != nil {
		t.Fatal(err)
	}
	var ofdmLoss, flatLoss float64
	for j := range n.Users {
		ofdmLoss += n.Users[j].FBSLink.LossProbability()
		flatLoss += flat.Users[j].FBSLink.LossProbability()
	}
	if ofdmLoss > flatLoss {
		t.Fatalf("OFDM mean femto loss %v above flat %v: no diversity gain", ofdmLoss/3, flatLoss/3)
	}
}
