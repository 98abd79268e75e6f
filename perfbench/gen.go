package main

import (
	"fmt"

	"femtocr/internal/netmodel"
)

// Workload generation. A plan is a pure function of the workload name and
// the seed: the deployments to build and the op sequence to drive through
// them. Nothing in a plan is computed by the program under test; the
// program only receives the generated inputs.

// DefaultSeed is the base seed of the paper's figures (experiments.PaperParams).
const DefaultSeed = 1000

// Paper-scale constants of §V: the Fig. 4(c)/6(a) utilization grid, ten
// replications per point and twenty GOPs per replication.
var paperEtas = []float64{0.3, 0.4, 0.5, 0.6, 0.7}

const (
	paperRuns = 10
	paperGOPs = 20
)

// Metro constants: the BENCH_shard.json city (Poisson layout, 400 FBSs, two
// users each, one GOP per op). The layout comes from the fixed
// netmodel.DefaultConfig seed, so every workload seed runs the same city.
const (
	metroFBSs        = 400
	metroUsersPerFBS = 2
	metroGOPs        = 1
)

// netSpec is one deployment of a plan.
type netSpec struct {
	label string // human-readable point, e.g. "eta=0.3"
	cfg   netmodel.Config
	spec  netmodel.TopologySpec
}

// opSpec is one op: which deployment and which engine seed.
type opSpec struct {
	net  int
	seed uint64
}

// plan is a workload's generated input.
type plan struct {
	workload string
	seed     uint64
	// sharded ops go through sim.RunSharded; the others through sim.Run.
	sharded    bool
	gops       int
	trackBound bool
	// tailPct is the op-time percentile reported as op_ms_tail, chosen so a
	// 30 s run leaves at least ten ops beyond it with room to spare: a run
	// short of that falls back to a lower percentile, and a percentile that
	// moves between runs makes the metric jump.
	tailPct float64
	nets    []netSpec
	// cycle, when non-nil, is the op sequence repeated for the whole run;
	// nil means op i runs deployment 0 with seed+i.
	cycle []opSpec
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"paper-single", "paper-interfering", "metro"}

// generate builds the plan of a named workload.
func generate(workload string, seed uint64) (*plan, error) {
	switch workload {
	case "paper-single":
		return paperPlan(workload, seed, netmodel.PaperSingleSpec(), false, 95)
	case "paper-interfering":
		return paperPlan(workload, seed, netmodel.PaperInterferingSpec(), true, 75)
	case "metro":
		return &plan{
			workload: workload,
			seed:     seed,
			sharded:  true,
			gops:     metroGOPs,
			tailPct:  75,
			nets: []netSpec{{
				label: fmt.Sprintf("poisson fbs=%d users/fbs=%d", metroFBSs, metroUsersPerFBS),
				cfg:   netmodel.DefaultConfig(),
				spec:  netmodel.MetroPoissonSpec(metroFBSs, metroUsersPerFBS),
			}},
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
}

// paperPlan is a §V figure sweep: every eta point times paperRuns
// replications with seeds seed+r, eta-major, exactly the cells the figure
// averages, so a pass over the cycle regenerates one figure curve.
func paperPlan(workload string, seed uint64, spec netmodel.TopologySpec, trackBound bool, tailPct float64) (*plan, error) {
	p := &plan{workload: workload, seed: seed, gops: paperGOPs, trackBound: trackBound, tailPct: tailPct}
	for xi, eta := range paperEtas {
		cfg, err := netmodel.DefaultConfig().WithUtilization(eta)
		if err != nil {
			return nil, fmt.Errorf("eta=%v: %w", eta, err)
		}
		p.nets = append(p.nets, netSpec{label: fmt.Sprintf("eta=%v", eta), cfg: cfg, spec: spec})
		for r := 0; r < paperRuns; r++ {
			p.cycle = append(p.cycle, opSpec{net: xi, seed: seed + uint64(r)})
		}
	}
	return p, nil
}

// op returns the i-th op of the plan.
func (p *plan) op(i int) opSpec {
	if p.cycle == nil {
		return opSpec{net: 0, seed: p.seed + uint64(i)}
	}
	return p.cycle[i%len(p.cycle)]
}
