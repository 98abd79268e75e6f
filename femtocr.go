// Package femtocr is a Go implementation of "Resource Allocation for Medium
// Grain Scalable Videos over Femtocell Cognitive Radio Networks" (Hu & Mao,
// ICDCS 2011).
//
// It provides the paper's full stack: two-state Markov channel occupancy,
// spectrum sensing with false alarms and miss detections, Bayesian fusion of
// sensing results, collision-bounded opportunistic access, block-fading
// links, an MGS video quality model, the optimum-achieving distributed
// resource allocation of Tables I/II, the greedy channel allocation of
// Table III with its Theorem 2 and eq. (23) bounds, the two heuristic
// baselines, and a slot-level simulator plus experiment drivers that
// regenerate every figure of the paper's evaluation.
//
// Quick start:
//
//	net, err := femtocr.NewNetwork(femtocr.DefaultConfig(), femtocr.PaperSingleSpec())
//	if err != nil { ... }
//	res, err := femtocr.Simulate(net, femtocr.SimOptions{Seed: 1, GOPs: 20})
//	fmt.Println(res.MeanPSNR)
//
// Metro scale: generated city topologies decompose into independent
// interference shards and run on the sharded engine:
//
//	net, err := femtocr.NewNetwork(femtocr.DefaultConfig(), femtocr.MetroPoissonSpec(10000, 100))
//	res, err := femtocr.SimulateSharded(net, femtocr.SimOptions{
//		Seed: 1, GOPs: 1, Parallel: femtocr.Parallelism{Workers: 8},
//	})
//
// The deeper building blocks (solvers, sensing fusion, fading models) live
// in the internal packages and are exercised through this facade and the
// binaries under cmd/.
package femtocr

import (
	"femtocr/internal/experiments"
	"femtocr/internal/netmodel"
	"femtocr/internal/par"
	"femtocr/internal/sim"
	"femtocr/internal/stats"
	"femtocr/internal/video"
)

// Config is a scenario configuration (channel counts and capacities,
// Markov occupancy, collision budget, sensing errors, deadline, the
// optional OFDM links and the placement seed). See DefaultConfig for the
// paper's §V values; the GOP size and the radio calibration behind every
// link's success probability are fixed.
type Config = netmodel.Config

// Network is a fully built femtocell CR network.
type Network = netmodel.Network

// SimOptions configures one simulation run.
type SimOptions = sim.Options

// SimResult is the outcome of one run.
type SimResult = sim.Result

// Prior selects the sensing fusion prior of SimOptions.
type Prior = sim.Prior

// The fusion priors: the paper's known stationary utilization, and two
// extensions that do not assume it.
const (
	StationaryPrior = sim.StationaryPrior
	EstimatedPrior  = sim.EstimatedPrior
	BeliefPrior     = sim.BeliefPrior
)

// Scheme selects a resource-allocation scheme.
type Scheme = sim.Scheme

// The three schemes of the paper's evaluation, plus the blind TDMA
// baseline added as an extension anchor.
const (
	Proposed   = sim.Proposed
	Heuristic1 = sim.Heuristic1
	Heuristic2 = sim.Heuristic2
	RoundRobin = sim.RoundRobin
	// MaxThroughput maximizes the quality sum with no fairness concern.
	MaxThroughput = sim.MaxThroughput
)

// ExperimentParams scales an experiment (runs, GOPs, seed).
type ExperimentParams = experiments.Params

// Parallelism is the parallel-execution knob shared by SimOptions
// (SimulateSharded, which runs one task per interference component) and
// ExperimentParams: Workers caps concurrent tasks (0: one per CPU). It
// only changes the schedule — results are bitwise-identical for any
// setting.
type Parallelism = par.Parallelism

// TopologySpec declares a deployment layout for NewNetwork: the paper's
// single-FBS and Fig. 5 scenarios, disjoint-coverage lines, or generated
// metro-scale grids and Poisson scatters.
type TopologySpec = netmodel.TopologySpec

// TopologyKind selects a TopologySpec layout.
type TopologyKind = netmodel.TopologyKind

// The deployment layouts NewNetwork understands.
const (
	// TopologySingle is the paper's single-FBS scenario (§V-A).
	TopologySingle = netmodel.KindSingle
	// TopologyNonInterferingLine spaces FBSs 4R apart: an edgeless
	// interference graph (Table II).
	TopologyNonInterferingLine = netmodel.KindNonInterferingLine
	// TopologyInterferingPath spaces FBSs 1.5R apart: the Fig. 5 path.
	TopologyInterferingPath = netmodel.KindInterferingPath
	// TopologyMetroGrid tiles city blocks of interfering FBSs separated by
	// streets; the interference graph decomposes into one path per block.
	TopologyMetroGrid = netmodel.KindMetroGrid
	// TopologyMetroPoisson scatters FBSs uniformly over an area; clusters
	// emerge from the spatial density.
	TopologyMetroPoisson = netmodel.KindMetroPoisson
)

// ShardedResult aggregates a SimulateSharded run: quality fields folded
// deterministically across interference shards, per-shard summaries, and
// per-task ns accounting.
type ShardedResult = sim.ShardedResult

// ShardSummary is one shard's fixed-size reduction inside a ShardedResult.
type ShardSummary = sim.ShardSummary

// Figure is a rendered experiment result: one curve per scheme with 95%
// confidence intervals, with text-table and CSV output.
type Figure = stats.Figure

// Sequence is an MGS video description with its rate-quality model.
type Sequence = video.Sequence

// DefaultConfig returns the paper's §V parameters.
func DefaultConfig() Config { return netmodel.DefaultConfig() }

// Sequences returns the built-in CIF sequence presets (Bus, Mobile, Harbor,
// Foreman, Crew, City).
func Sequences() []Sequence { return video.StandardSequences() }

// SequenceByName looks up a preset video sequence.
func SequenceByName(name string) (Sequence, error) { return video.SequenceByName(name) }

// NewNetwork assembles a network from a configuration and a topology
// specification — the single entry point behind every deployment scenario,
// from the paper's three-user single cell to a generated 10k-FBS metro.
// Use the *Spec helpers (PaperSingleSpec, PaperInterferingSpec,
// NonInterferingSpec, MetroGridSpec, MetroPoissonSpec) for common layouts.
func NewNetwork(cfg Config, spec TopologySpec) (*Network, error) {
	return netmodel.NewNetwork(cfg, spec)
}

// SingleSpec declares a single-FBS layout streaming the given sequences.
func SingleSpec(videos []Sequence) TopologySpec { return netmodel.SingleSpec(videos) }

// PaperSingleSpec declares the exact §V-A scenario: one FBS streaming Bus,
// Mobile and Harbor to three users.
func PaperSingleSpec() TopologySpec { return netmodel.PaperSingleSpec() }

// NonInterferingSpec declares disjoint-coverage femtocells, one video group
// per FBS.
func NonInterferingSpec(videosPerFBS [][]Sequence) TopologySpec {
	return netmodel.NonInterferingSpec(videosPerFBS)
}

// InterferingPathSpec declares the §V-B path layout, one video group per
// FBS.
func InterferingPathSpec(videosPerFBS [][]Sequence) TopologySpec {
	return netmodel.InterferingPathSpec(videosPerFBS)
}

// PaperInterferingSpec declares the exact §V-B scenario: three FBSs on the
// Fig. 5 path, each streaming the Bus/Mobile/Harbor trio.
func PaperInterferingSpec() TopologySpec { return netmodel.PaperInterferingSpec() }

// MetroGridSpec declares a rows x cols city-block grid (three interfering
// FBSs per block by default) with usersPerFBS generated streams per cell
// (0: three, the paper's load).
func MetroGridSpec(rows, cols, usersPerFBS int) TopologySpec {
	return netmodel.MetroGridSpec(rows, cols, usersPerFBS)
}

// MetroPoissonSpec declares fbss femtocells scattered uniformly over an
// automatically sized urban area with usersPerFBS generated streams per
// cell (0: three, the paper's load).
func MetroPoissonSpec(fbss, usersPerFBS int) TopologySpec {
	return netmodel.MetroPoissonSpec(fbss, usersPerFBS)
}

// Simulate runs one simulation.
func Simulate(net *Network, opts SimOptions) (*SimResult, error) { return sim.Run(net, opts) }

// SimulateSharded runs the network through the sharded engine: each
// connected component of the interference graph simulates independently on
// the worker pool (opts.Parallel) and the per-shard summaries fold
// deterministically in ascending component order. On a connected network
// the result matches Simulate bit for bit; on a generated metro it scales
// to millions of users with O(shards) result memory.
func SimulateSharded(net *Network, opts SimOptions) (*ShardedResult, error) {
	return sim.RunSharded(net, opts)
}

// QuickScale returns a reduced experiment scale for smoke runs.
func QuickScale() ExperimentParams { return experiments.QuickParams() }

// NamedFigure is one figure of a Figures call with its output name (fig3
// for the paper's Fig. 3, gamma for the collision-budget trade-off).
type NamedFigure = experiments.Named

// Figures regenerates, at the given scale and in registry order, every
// figure the ids select, reading ids as cmd/figures' -fig does: "all" is
// the paper's figures, "everything" adds the ablations, the extensions and
// the topology study, and any other id names one figure, a paper figure by
// its number (3, 4a, …, 6c) and any other by its output name (gamma,
// scalability, topology, …). An unknown id, or none, is an error.
func Figures(p ExperimentParams, ids ...string) ([]NamedFigure, error) {
	return experiments.Run(p, ids...)
}
