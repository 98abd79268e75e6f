package femtocr

import (
	"femtocr/internal/experiments"
	"femtocr/internal/packetsim"
)

// Extensions beyond the paper's figures, exposed through the facade:
// packet-level simulation, ablations, and the scalability/gamma studies.

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

// AblationBelief compares the stationary fusion prior with the Bayesian
// occupancy filter across channel-mixing speeds.
func AblationBelief(p ExperimentParams) (*Figure, error) {
	return experiments.AblationBelief(p)
}

// AblationSensorPolicy compares sensor-to-channel assignment policies.
func AblationSensorPolicy(p ExperimentParams) (*Figure, error) {
	return experiments.AblationSensorPolicy(p)
}

// GammaTradeoff sweeps the collision budget gamma, reporting quality and
// realized primary-user collision rates.
func GammaTradeoff(p ExperimentParams) (*Figure, error) {
	return experiments.GammaTradeoff(p)
}

// EngineComparison cross-validates the rate-based and packet-level engines
// per scheme.
func EngineComparison(p ExperimentParams) (*Figure, error) {
	return experiments.EngineComparison(p)
}

// UserCapacity sweeps the user population of a single femtocell (1, 2, 3,
// 4, 6 and 8 users) and reports mean and worst-user quality per size.
func UserCapacity(p ExperimentParams) (*Figure, error) {
	return experiments.UserCapacity(p)
}

// ScalePoint is one deployment size of the scalability study.
type ScalePoint = experiments.ScalePoint

// Scalability grows the interfering deployment (2, 3, 4 and 6 FBSs) and
// measures per-scheme quality, the eq. (23) bound gap, and wall time.
func Scalability(p ExperimentParams) ([]ScalePoint, error) {
	return experiments.Scalability(p)
}
