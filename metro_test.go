package femtocr_test

import (
	"reflect"
	"testing"

	"femtocr"
)

// TestFacadeMetroSharded exercises the metro path end to end through the
// facade: generate a city, run the sharded engine, and check the
// decomposition and determinism contracts.
func TestFacadeMetroSharded(t *testing.T) {
	cfg := femtocr.DefaultConfig()
	net, err := femtocr.NewNetwork(cfg, femtocr.MetroGridSpec(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	opts := femtocr.SimOptions{Seed: 7, GOPs: 2,
		Parallel: femtocr.Parallelism{Workers: 4}}
	res, err := femtocr.SimulateSharded(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.FBSs != 12 || res.Users != 24 {
		t.Fatalf("decomposition: shards=%d FBSs=%d users=%d, want 4/12/24", res.Shards, res.FBSs, res.Users)
	}
	if res.MeanPSNR <= 0 || res.MinUserPSNR <= 0 {
		t.Fatalf("degenerate quality: mean=%v min=%v", res.MeanPSNR, res.MinUserPSNR)
	}
	if res.Timing == nil || len(res.Timing.ShardNS) != res.Shards || res.Timing.IdealSpeedup() <= 0 {
		t.Fatalf("missing per-task ns accounting: %+v", res.Timing)
	}

	// A different worker count must not change anything but Timing.
	opts2 := opts
	opts2.Parallel = femtocr.Parallelism{Workers: 1}
	res2, err := femtocr.SimulateSharded(net, opts2)
	if err != nil {
		t.Fatal(err)
	}
	res.Timing, res2.Timing = nil, nil
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("sharded result depends on the Parallelism setting")
	}
}
