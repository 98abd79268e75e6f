package main

import (
	"fmt"
	"math"

	"femtocr/internal/netmodel"
	"femtocr/internal/stats"
)

// Output checks. Every op is checked against invariants that hold for any
// seed; at the seeds with a recorded reference, the outputs must also
// reproduce the checked-in figures to the last bit.

// paperReference holds the per-point figure means a paper workload must
// reproduce at one seed: the Proposed_mean (and, with TrackBound, the
// Upper bound_mean) columns of the figure's CSV under results/.
type paperReference struct {
	seed     uint64
	csv      string    // the results/ file the values come from
	proposed []float64 // per paperEtas point
	bound    []float64 // per paperEtas point; nil when the figure has none
}

// paperReferences are the default-seed figure columns of results/fig4c.csv
// (paper-single) and results/fig6a.csv (paper-interfering).
var paperReferences = map[string]paperReference{
	"paper-single": {
		seed: DefaultSeed,
		csv:  "fig4c.csv",
		proposed: []float64{
			32.77534463253909, 32.110726242560936, 31.515890252601913,
			30.865087203086958, 30.399251649294087,
		},
	},
	"paper-interfering": {
		seed: DefaultSeed,
		csv:  "fig6a.csv",
		proposed: []float64{
			31.861754762395375, 31.28846426005972, 30.79247504386384,
			30.254107100639175, 29.685371188277667,
		},
		bound: []float64{
			33.00627198094393, 32.228100704977805, 31.59146972834659,
			30.949524914005345, 30.257000696202493,
		},
	},
}

// metroReference is the folded PSNR BENCH_shard.json records for the metro
// city at engine seed 1.
var metroReference = struct {
	seed uint64
	psnr float64
}{seed: 1, psnr: 31.592089608346868}

// opResult is what one op produced, from the engine or from the replay.
type opResult struct {
	mean, bound float64
	// perUser and perUserBound are each user's mean quality (sim.Run ops).
	perUser, perUserBound []float64
	// minUser and maxUser bound the per-user quality (sharded ops).
	minUser, maxUser float64
	users, slots     int // users, and network slots per user, simulated
	gops             int
}

// qualityRange is the [base layer, ceiling] quality interval of each user.
type qualityRange struct{ lo, hi []float64 }

func newQualityRange(net *netmodel.Network) qualityRange {
	q := qualityRange{lo: make([]float64, net.K()), hi: make([]float64, net.K())}
	for j, u := range net.Users {
		q.lo[j] = u.Seq.RD.Alpha
		q.hi[j] = u.Seq.MaxPSNR()
	}
	return q
}

// span returns the loosest interval over all users.
func (q qualityRange) span() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for j := range q.lo {
		lo = math.Min(lo, q.lo[j])
		hi = math.Max(hi, q.hi[j])
	}
	return lo, hi
}

// rangeSlack absorbs the rounding of a mean over GOPs that all sit at the
// base layer or the ceiling (e.g. 27.899999999999988 for a 27.9 dB base).
const rangeSlack = 1e-9

// inRange reports whether v is finite and within [lo, hi] up to rangeSlack.
func inRange(v, lo, hi float64) bool {
	return !math.IsNaN(v) && v >= lo-rangeSlack && v <= hi+rangeSlack
}

// checker validates op outputs and counts failed ops.
type checker struct {
	p      *plan
	ranges []qualityRange  // per deployment
	paper  *paperReference // nil: no reference at this seed
	metro  *float64        // expected PSNR of the reference op; nil: none

	// The paper reference is checked per figure point, once all of its
	// replications have run in sequence.
	psnr, bound [paperRuns]float64
	bad         [paperRuns]bool
	filled      int

	attempted, failed int
}

// newChecker picks the references that apply to the plan's seed.
func newChecker(p *plan, ranges []qualityRange) *checker {
	c := &checker{p: p, ranges: ranges}
	if ref, ok := paperReferences[p.workload]; ok && ref.seed == p.seed {
		c.paper = &ref
	}
	if p.sharded {
		c.metro = &metroReference.psnr
	}
	return c
}

// invariants checks what must hold for any seed: the horizon ran, and all
// quality figures are finite and within [base layer, ceiling].
func (c *checker) invariants(op opSpec, r *opResult) error {
	q := c.ranges[op.net]
	if r.gops != c.p.gops {
		return fmt.Errorf("ran %d GOPs, want %d", r.gops, c.p.gops)
	}
	if r.users != len(q.lo) {
		return fmt.Errorf("simulated %d users, want %d", r.users, len(q.lo))
	}
	lo, hi := q.span()
	if !inRange(r.mean, lo, hi) {
		return fmt.Errorf("mean PSNR %v outside [%v, %v]", r.mean, lo, hi)
	}
	for j, v := range r.perUser {
		if !inRange(v, q.lo[j], q.hi[j]) {
			return fmt.Errorf("user %d PSNR %v outside [%v, %v]", j, v, q.lo[j], q.hi[j])
		}
	}
	if c.p.trackBound {
		if !inRange(r.bound, lo, hi) {
			return fmt.Errorf("bound PSNR %v outside [%v, %v]", r.bound, lo, hi)
		}
		for j, v := range r.perUserBound {
			if !inRange(v, q.lo[j], q.hi[j]) {
				return fmt.Errorf("user %d bound PSNR %v outside [%v, %v]", j, v, q.lo[j], q.hi[j])
			}
		}
	}
	if c.p.sharded && (!inRange(r.minUser, lo, hi) || !inRange(r.maxUser, lo, hi) || r.minUser > r.maxUser) {
		return fmt.Errorf("per-user PSNR range [%v, %v] outside [%v, %v]", r.minUser, r.maxUser, lo, hi)
	}
	return nil
}

// observe checks engine op i (err is the op's own error) and returns the
// first problem found, if any. Failed ops are counted, each at most once.
func (c *checker) observe(i int, r *opResult, err error) error {
	c.attempted++
	op := c.p.op(i)
	if err == nil {
		err = c.invariants(op, r)
	}
	if err == nil && c.metro != nil && op.seed == metroReference.seed && math.Float64bits(r.mean) != math.Float64bits(*c.metro) {
		err = fmt.Errorf("metro seed %d PSNR %.17g, reference %.17g", op.seed, r.mean, *c.metro)
	}
	if err != nil {
		c.failed++
	}
	if c.paper != nil {
		if perr := c.observePoint(i, r, err != nil); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// observePoint accumulates op i into its figure point and, when the point's
// last replication lands, compares the point means bitwise with the
// reference. A mismatch fails every op of the point not already failed.
func (c *checker) observePoint(i int, r *opResult, bad bool) error {
	pos := i % len(c.p.cycle)
	xi, rep := pos/paperRuns, pos%paperRuns
	if rep == 0 {
		c.filled = 0
	}
	if rep != c.filled {
		return nil // the point did not start within this run
	}
	c.filled++
	c.bad[rep] = bad
	if r != nil {
		c.psnr[rep], c.bound[rep] = r.mean, r.bound
	}
	if c.filled < paperRuns {
		return nil
	}
	var err error
	if got, want := figureMean(c.psnr[:]), c.paper.proposed[xi]; math.Float64bits(got) != math.Float64bits(want) {
		err = fmt.Errorf("%s: Proposed mean %.17g, %s has %.17g", c.p.nets[xi].label, got, c.paper.csv, want)
	} else if c.paper.bound != nil {
		if got, want := figureMean(c.bound[:]), c.paper.bound[xi]; math.Float64bits(got) != math.Float64bits(want) {
			err = fmt.Errorf("%s: Upper bound mean %.17g, %s has %.17g", c.p.nets[xi].label, got, c.paper.csv, want)
		}
	}
	if err != nil {
		for k := range c.bad {
			if !c.bad[k] {
				c.failed++
			}
		}
	}
	return err
}

// figureMean folds replication values the way the figure sweeps do
// (experiments.mergeSummary): one single-value accumulator per run, merged
// in run order.
func figureMean(xs []float64) float64 {
	var acc stats.Running
	for _, x := range xs {
		var one stats.Running
		one.Add(x)
		acc.Merge(&one)
	}
	return acc.Mean()
}
