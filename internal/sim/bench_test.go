package sim

// Slot-engine benchmarks: the cost of one simulated GOP per scheme and
// deployment, the driver of every figure's wall-clock time.

import (
	"testing"

	"femtocr/internal/netmodel"
)

func benchNet(b testing.TB, interfering bool) *netmodel.Network {
	b.Helper()
	var (
		net *netmodel.Network
		err error
	)
	if interfering {
		net, err = netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperInterferingSpec())
	} else {
		net, err = netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	}
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchRun(b *testing.B, net *netmodel.Network, opts Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i) + 1
		opts.GOPs = 1
		if _, err := Run(net, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSlotStep measures the steady-state cost of one simulated slot: the
// engine is built and stepped through one warm-up GOP outside the timer,
// as TestSlotStepSteadyStateAllocs warms it, then stepped b.N slots. This
// is the hot path BENCH_hotpath.json tracks for allocation regressions —
// after the warm-up the per-slot loop should be allocation-free.
func benchSlotStep(b *testing.B, interfering bool, opts Options) {
	b.Helper()
	net := benchNet(b, interfering)
	opts.Seed = 1
	opts.GOPs = 1
	e, err := newEngine(net, opts.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	for slot := 0; slot < net.T; slot++ {
		if err := e.step(slot); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.step(net.T + i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlotStepProposedSingle(b *testing.B) {
	benchSlotStep(b, false, Options{Scheme: Proposed})
}

func BenchmarkSlotStepProposedInterfering(b *testing.B) {
	benchSlotStep(b, true, Options{Scheme: Proposed})
}

func BenchmarkGOPProposedSingle(b *testing.B) {
	benchRun(b, benchNet(b, false), Options{Scheme: Proposed})
}

func BenchmarkGOPProposedInterfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Proposed})
}

func BenchmarkGOPProposedInterferingWithBound(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Proposed, TrackBound: true})
}

func BenchmarkGOPHeuristic1Interfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Heuristic1})
}

func BenchmarkGOPHeuristic2Interfering(b *testing.B) {
	benchRun(b, benchNet(b, true), Options{Scheme: Heuristic2})
}
