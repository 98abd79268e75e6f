package femtocr

import (
	"femtocr/internal/packetsim"
)

// Packet-level simulation, an extension beyond the paper's rate-based
// model, exposed through the facade (the ablations, the extension figures
// and the topology and scalability studies come from Figures).

// PacketOptions configures a packet-level simulation run.
type PacketOptions = packetsim.Options

// PacketResult is the outcome of a packet-level run.
type PacketResult = packetsim.Result

// SimulatePackets runs the packet-level engine: explicit NAL-unit queues,
// significance-ordered transmission, ARQ retransmissions, and deadline
// discards (§III-E), instead of the rate-based expected-quality accounting.
func SimulatePackets(net *Network, opts PacketOptions) (*PacketResult, error) {
	return packetsim.Run(net, opts)
}
