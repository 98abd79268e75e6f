package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"femtocr/internal/netmodel"
	"femtocr/internal/stats"
)

// TestParallelDeterminism is the tentpole regression: the worker pool must
// produce byte-identical figures for any worker count, because every run
// derives all randomness from its own seed and aggregation happens strictly
// after the join, in task-index order. Run under -race this also proves the
// grid is data-race-free.
func TestParallelDeterminism(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Params) (*stats.Figure, error)
	}{
		{"Fig3", Fig3},
		{"Fig5", Fig5},
		{"GammaTradeoff", GammaTradeoff},
		// The solver-level study: its randomness flows through per-trial
		// streams split before dispatch rather than sim seeds.
		{"Topology", Topology},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var baseline string
			for _, w := range workerCounts {
				p := QuickParams()
				p.Parallel.Workers = w
				fig, err := d.run(p)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				csv := fig.CSV()
				if w == workerCounts[0] {
					baseline = csv
					continue
				}
				if csv != baseline {
					t.Fatalf("workers=%d CSV differs from workers=%d:\n%s\nvs\n%s",
						w, workerCounts[0], csv, baseline)
				}
			}
		})
	}
}

// TestRunGridRunsEveryTaskOnce pins the replication grid's task layout:
// every (point, run) cell runs exactly once, with seed BaseSeed+r, for any
// worker count. par.RunGrid's own dispatch contract is tested in
// internal/par.
func TestRunGridRunsEveryTaskOnce(t *testing.T) {
	const points = 4
	p := Params{Runs: 5, BaseSeed: 100}
	for _, workers := range []int{1, 3} {
		p.Parallel.Workers = workers
		counts := make([]atomic.Int32, points*p.Runs)
		if _, err := runGrid(p, points, 1, func(pt int, seed uint64, _ []float64) error {
			counts[pt*p.Runs+int(seed-p.BaseSeed)].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell (point %d, run %d) ran %d times", workers, i/p.Runs, i%p.Runs, got)
			}
		}
	}
}

// TestRunGridRecoversPanic: a panicking cell must come back from the
// replication grid as an error naming its task index and the panic value —
// on both the sequential and pooled paths — not as a process-killing stack
// trace, and the undispatched cells must be cancelled. Run under -race this
// also proves the recovery path through the grid is race-free.
func TestRunGridRecoversPanic(t *testing.T) {
	const points = 8
	p := Params{Runs: 5, BaseSeed: 100}
	for _, workers := range []int{1, 4} {
		p.Parallel.Workers = workers
		var executed atomic.Int32
		// Cell (point 1, run 2) is task 7 = 1*Runs + 2.
		_, err := runGrid(p, points, 1, func(pt int, seed uint64, _ []float64) error {
			executed.Add(1)
			i := pt*p.Runs + int(seed-p.BaseSeed)
			if i == 7 {
				panic("bad grid point")
			}
			if i > 7 { // leave undispatched work behind when the panic lands
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if !strings.Contains(err.Error(), "task 7 panicked") ||
			!strings.Contains(err.Error(), "bad grid point") {
			t.Fatalf("workers=%d: err = %v, want the panicking task's index and value", workers, err)
		}
		if got := executed.Load(); got >= points*int32(p.Runs) {
			t.Fatalf("workers=%d: all %d cells ran despite the panic at task 7", workers, got)
		}
	}
	// A non-string panic value must survive the conversion too.
	p.Parallel.Workers = 1
	_, err := runGrid(p, 1, 1, func(_ int, seed uint64, _ []float64) error {
		if seed == p.BaseSeed+2 {
			panic(errors.New("wrapped cause"))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 2 panicked: wrapped cause") {
		t.Fatalf("err = %v, want task 2's panic value formatted in", err)
	}
}

// TestRunGridReplicationContract pins what the drivers read back: each
// (point, metric) summary is mergeSummary of that column in run order for
// any worker count, and a failing run's error carries its run index.
func TestRunGridReplicationContract(t *testing.T) {
	const points, metrics = 4, 2
	p := Params{Runs: 5, BaseSeed: 100}
	value := func(pt, m int, seed uint64) float64 { return float64(pt*1000+m) + float64(seed)/7 }
	for _, workers := range []int{1, 3} {
		p.Parallel.Workers = workers
		sums, err := runGrid(p, points, metrics, func(pt int, seed uint64, out []float64) error {
			for m := range out {
				out[m] = value(pt, m, seed)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for pt := 0; pt < points; pt++ {
			for m := 0; m < metrics; m++ {
				want := make([]float64, p.Runs)
				for r := range want {
					want[r] = value(pt, m, p.BaseSeed+uint64(r))
				}
				sum, err := mergeSummary(want)
				if err != nil {
					t.Fatal(err)
				}
				if sums[pt][m] != sum {
					t.Fatalf("workers=%d: sums[%d][%d] = %+v, want %+v", workers, pt, m, sums[pt][m], sum)
				}
			}
		}
	}
	boom := errors.New("boom")
	_, err := runGrid(p, 3, 1, func(pt int, seed uint64, _ []float64) error {
		if pt == 1 && seed == p.BaseSeed+3 {
			return fmt.Errorf("point %d: %w", pt, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "run 3: point 1") {
		t.Fatalf("err = %v, want boom wrapped with run 3's context", err)
	}
}

// TestSweepSurfacesPointContext injects a mid-grid failure — a network that
// passes the builder but fails sim.Run's validation — and checks the error
// carries its sweep point and variant context and unwraps to the cause.
func TestSweepSurfacesPointContext(t *testing.T) {
	p := QuickParams()
	p.Parallel.Workers = 4
	fig, err := sweep(p, compared(sweepSpec{
		title:  "failure injection",
		xLabel: "x",
		xs:     []float64{1, 2, 3},
		network: func(cfg netmodel.Config, x float64) (*netmodel.Network, error) {
			net, err := netmodel.NewNetwork(cfg, netmodel.PaperSingleSpec())
			if err != nil {
				return nil, err
			}
			if x == 2 { //femtovet:ignore floateq -- grid-key comparison, exact by design
				net.Gamma = 1.5 // passes the builder, fails sim.Run validation
			}
			return net, nil
		},
	}, false))
	if err == nil {
		t.Fatalf("expected a mid-grid error, got figure %v", fig)
	}
	if !errors.Is(err, netmodel.ErrBadNetwork) {
		t.Fatalf("err = %v, want wrapped netmodel.ErrBadNetwork", err)
	}
	// The grid fails first, in index order, at x = 2's first variant.
	if !strings.Contains(err.Error(), "x=2 scheme=Proposed prior=") {
		t.Fatalf("err %q lacks the sweep point and variant context", err)
	}
}

// TestMergeSummaryMatchesSummarize: the index-ordered Running.Merge fold
// used by the parallel aggregation must agree with the direct summary on
// the statistics the figures report.
func TestMergeSummaryMatchesSummarize(t *testing.T) {
	xs := []float64{31.2, 29.8, 33.1, 30.5, 28.9}
	merged, err := mergeSummary(xs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.N != direct.N {
		t.Fatalf("N %d vs %d", merged.N, direct.N)
	}
	if diff := merged.Mean - direct.Mean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean %v vs %v", merged.Mean, direct.Mean)
	}
	if diff := merged.HalfWidth - direct.HalfWidth; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("half-width %v vs %v", merged.HalfWidth, direct.HalfWidth)
	}
	if _, err := mergeSummary(nil); !errors.Is(err, stats.ErrNoData) {
		t.Fatalf("empty merge err = %v, want ErrNoData", err)
	}
}

// TestMergeSummaryBitwiseSequential pins mergeSummary to its reference: a
// plain sequential stats.Running accumulation over the same xs, folding one
// single-observation accumulator per element in index order. Equality is
// bitwise (struct ==, no tolerance): if mergeSummary is ever rewritten as a
// chunked or tree-shaped merge — tempting at metro scale — the fold order
// changes, the float rounding changes, and replication output silently
// shifts; this test turns that into a hard failure. Lengths 0 and 1 cover
// the no-data error and the degenerate single-observation summary.
func TestMergeSummaryBitwiseSequential(t *testing.T) {
	base := []float64{31.2, 29.8, 33.1, 30.5, 28.9, 1e-9, 7, math.Pi,
		-4.25, 1e9, 0.1, 2.2, -31.7, 0, 55.5, 1e-300, 42}
	for _, n := range []int{0, 1, 2, 5, len(base)} {
		xs := base[:n]
		var acc stats.Running
		for _, x := range xs { // the reference: sequential, index order
			var one stats.Running
			one.Add(x)
			acc.Merge(&one)
		}
		want, werr := acc.Summary()
		got, gerr := mergeSummary(xs)
		if n == 0 {
			if !errors.Is(gerr, stats.ErrNoData) || !errors.Is(werr, stats.ErrNoData) {
				t.Fatalf("n=0: errs = (%v, %v), want ErrNoData from both", gerr, werr)
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Fatalf("n=%d: errs = (%v, %v)", n, gerr, werr)
		}
		if got != want {
			t.Fatalf("n=%d: mergeSummary %+v differs bitwise from the sequential fold %+v", n, got, want)
		}
	}
}

// TestGammaTradeoffProtectsPrimaryUsers is the end-to-end acceptance check
// for the collision-accounting fix: across the gamma sweep, the realized
// worst-channel conditional collision rate must stay within sampling noise
// of the threshold (mean <= gamma + 3 standard errors).
func TestGammaTradeoffProtectsPrimaryUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-gamma sweep at confidence scale")
	}
	// Result.CollisionRate is the max over M channels of a per-channel
	// proportion, so its expectation sits above gamma by an order-statistic
	// bias that shrinks as 1/sqrt(busy slots). GOPs=200 (2000 slots per run,
	// matching sim's long-run collision test) keeps that bias inside the
	// 0.02 slack below.
	p := Params{Runs: 3, GOPs: 200, BaseSeed: 1000}
	fig, err := GammaTradeoff(p)
	if err != nil {
		t.Fatal(err)
	}
	coll := fig.Curve("Realized collision rate")
	if coll == nil || coll.Len() == 0 {
		t.Fatal("collision curve missing")
	}
	for i := 0; i < coll.Len(); i++ {
		gamma, s := coll.At(i)
		stderr := s.StdDev / math.Sqrt(float64(s.N))
		if s.Mean > gamma+3*stderr+0.02 {
			t.Errorf("gamma=%v: realized conditional rate %.4f exceeds gamma + 3*stderr (+slack), stderr=%.4f",
				gamma, s.Mean, stderr)
		}
		if s.Mean == 0 {
			t.Errorf("gamma=%v: zero realized collision rate; access rule looks inert", gamma)
		}
	}
}
