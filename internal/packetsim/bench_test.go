package packetsim

import (
	"testing"

	"femtocr/internal/netmodel"
	"femtocr/internal/sim"
)

func benchNet(b *testing.B) *netmodel.Network {
	b.Helper()
	net, err := netmodel.NewNetwork(netmodel.DefaultConfig(), netmodel.PaperSingleSpec())
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkGOPPacketLevel measures one packet-level GOP against the
// rate-based engine's BenchmarkGOPProposedSingle.
func BenchmarkGOPPacketLevel(b *testing.B) {
	net := benchNet(b)
	for i := 0; i < b.N; i++ {
		if _, err := Run(net, Options{Seed: uint64(i) + 1, GOPs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGOPPacketLevelHeuristic1(b *testing.B) {
	net := benchNet(b)
	for i := 0; i < b.N; i++ {
		if _, err := Run(net, Options{Seed: uint64(i) + 1, GOPs: 1, Scheme: sim.Heuristic1}); err != nil {
			b.Fatal(err)
		}
	}
}
