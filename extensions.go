package femtocr

import (
	"femtocr/internal/experiments"
	"femtocr/internal/packetsim"
)

// Extensions beyond the paper's figures, exposed through the facade:
// packet-level simulation and the scalability study (the ablations and
// the other extension figures come from Figures).

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

// ScalePoint is one deployment size of the scalability study.
type ScalePoint = experiments.ScalePoint

// Scalability grows the interfering deployment (2, 3, 4 and 6 FBSs) and
// measures per-scheme quality, the eq. (23) bound gap, and wall time.
func Scalability(p ExperimentParams) ([]ScalePoint, error) {
	return experiments.Scalability(p)
}
