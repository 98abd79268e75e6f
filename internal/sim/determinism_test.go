package sim

// The workspace/pooling rework must be invisible in the outputs: a run is a
// pure function of (network, options), no matter how many other runs have
// churned the shared solver workspace pool before or during it. This test
// replays the same seed while concurrent runs with different seeds hammer
// the pool from other goroutines; every replay must equal the quiescent
// result field for field. Under -race it also proves the pooled workspaces
// are never shared between live solves.

import (
	"reflect"
	"sync"
	"testing"
)

func TestRunBitIdenticalUnderPoolChurn(t *testing.T) {
	cases := []struct {
		name        string
		interfering bool
		opts        Options
	}{
		{"single-proposed", false, Options{Scheme: Proposed, Seed: 11, GOPs: 2}},
		{"single-proposed-dualtrace", false, Options{Scheme: Proposed, DualTrace: 800, Seed: 11, GOPs: 2}},
		{"interfering-proposed-bound", true, Options{Scheme: Proposed, Seed: 11, GOPs: 1, TrackBound: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := benchNet(t, tc.interfering)
			want, err := Run(net, tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			const replays, churners = 3, 3
			var wg sync.WaitGroup
			got := make([]*Result, replays)
			errs := make([]error, replays)
			for i := 0; i < replays; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = Run(net, tc.opts)
				}(i)
			}
			for i := 0; i < churners; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					opts := tc.opts
					opts.Seed = uint64(100 + i)
					if _, err := Run(net, opts); err != nil {
						t.Errorf("churn run: %v", err)
					}
				}(i)
			}
			wg.Wait()

			for i := 0; i < replays; i++ {
				if errs[i] != nil {
					t.Fatalf("replay %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("replay %d diverged from the quiescent run:\n got %+v\nwant %+v", i, got[i], want)
				}
			}
		})
	}
}
