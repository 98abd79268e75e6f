package sim

// Allocation-regression pins for the per-slot hot path. After the engine
// is constructed, stepping slots must allocate nothing: every path, the
// interfering one included, is allocation-free apart from the amortized
// per-GOP PSNR bookkeeping, since the greedy refills the allocator's own
// result (core.GreedyAllocator.AllocateInto). A regression here is exactly
// the GC pressure that flattened the parallel replication speedup.
//
// The table is the only gate on the slot step's allocation contract, so
// its rows together execute every function the step can reach: each
// sensor policy, belief tracking, utilization estimation, the trace
// recorder, OFDM links, and the TrackBound relaxation. The pins skip under
// -race; scripts/check.sh runs this package once without it.

import (
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sensing"
	"femtocr/internal/trace"
)

func TestSlotStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		name        string
		interfering bool
		subcarriers int // OFDMSubcarriers of the single-FBS network; 0 = flat Rayleigh links
		opts        Options
		budget      float64 // average allocations per slot
	}{
		// The per-slot steady state is zero. testing.AllocsPerRun truncates
		// the average, so amortized growth (the trace recorder's appends) and
		// rare pool misses stay below one per slot over the 20 measured
		// slots, while a single allocation per slot fails. Every Proposed
		// row runs warm: seeds are written into pooled workspaces, and the
		// carried price and the solve counters live in the session.
		{"proposed-single", false, 0, Options{Scheme: Proposed}, 0},
		// The sensor policies other than the default RoundRobin each reach a
		// front-end root no other row does: the stratified permutation
		// (rng.PermInto into the frontend's buffer) and the per-user random
		// draw. The belief prior runs the occupancy filter every slot.
		{"proposed-single-stratified", false, 0, Options{Scheme: Proposed, SensorPolicy: sensing.Stratified}, 0},
		{"proposed-single-random", false, 0, Options{Scheme: Proposed, SensorPolicy: sensing.RandomAssign}, 0},
		{"proposed-single-belief", false, 0, Options{Scheme: Proposed, Prior: BeliefPrior}, 0},
		// Frequency-selective links sample per-subcarrier gains every slot
		// (ofdm.SampleGainsInto) into the link's reused buffer.
		{"proposed-single-ofdm", false, 16, Options{Scheme: Proposed}, 0},
		// Online utilization estimation and the trace recorder's amortized
		// appends stay within the same budget.
		{"proposed-single-estimate", false, 0, Options{Scheme: Proposed, Prior: EstimatedPrior}, 0},
		{"proposed-single-recorder", false, 0, Options{Scheme: Proposed, Recorder: new(trace.Recorder)}, 0},
		// The greedy channel allocation refills the allocator's result, and
		// the bound row adds the relaxation solve and the gain inflation;
		// one allocation per slot means a result field escapes again
		// (a fresh result cost ~17), and anything near the pre-rework
		// ~5900 means per-evaluation scratch is being rebuilt.
		{"proposed-interfering", true, 0, Options{Scheme: Proposed}, 0},
		{"proposed-interfering-bound", true, 0, Options{Scheme: Proposed, TrackBound: true}, 0},
		{"heuristic2-interfering", true, 0, Options{Scheme: Heuristic2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := benchNet(t, tc.interfering)
			if tc.subcarriers > 0 {
				cfg := netmodel.DefaultConfig()
				cfg.OFDMSubcarriers = tc.subcarriers
				var err error
				if net, err = netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec()); err != nil {
					t.Fatal(err)
				}
			}
			tc.opts.Seed = 1
			tc.opts.GOPs = 1
			e, err := newEngine(net, tc.opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			slot := 0
			for ; slot < net.T; slot++ { // warm one full GOP
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(2*net.T, func() {
				if err := e.step(slot); err != nil {
					t.Fatal(err)
				}
				slot++
			})
			if avg > tc.budget {
				t.Errorf("step allocates %.2f/slot in steady state, budget %g", avg, tc.budget)
			}
		})
	}
}
