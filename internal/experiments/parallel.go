package experiments

import (
	"fmt"

	"femtocr/internal/par"
	"femtocr/internal/stats"
)

// grid is the outcome of runGrid: sum[pt][m] is metric m of point pt
// folded over the runs by mergeSummary in ascending run order, and
// raw[pt][m][r] keeps run r's value.
type grid struct {
	sum [][]stats.Summary
	raw [][][]float64
}

// runGrid is the replication contract every experiment driver shares. It
// calls cell(pt, BaseSeed+r, out) for every point pt < points and run
// r < p.Runs as task i = pt*p.Runs + r of par.RunGrid over
// p.Parallel.Workers workers; cell fills out, its task's own slot of
// length metrics, with that run's results. After the join each
// (point, metric) column is folded in ascending run order, so the figures
// are bitwise-identical for any worker count. A failing run's error is
// returned with its run index.
func runGrid(p Params, points, metrics int, cell func(pt int, seed uint64, out []float64) error) (grid, error) {
	vals := make([]float64, points*p.Runs*metrics)
	err := par.RunGrid(points*p.Runs, p.Parallel.EffectiveWorkers(), func(i int) error {
		r := i % p.Runs
		if err := cell(i/p.Runs, p.BaseSeed+uint64(r), vals[i*metrics:(i+1)*metrics]); err != nil {
			return fmt.Errorf("run %d: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return grid{}, err
	}
	g := grid{sum: make([][]stats.Summary, points), raw: make([][][]float64, points)}
	for pt := range g.sum {
		g.sum[pt] = make([]stats.Summary, metrics)
		g.raw[pt] = make([][]float64, metrics)
		for m := range g.sum[pt] {
			col := make([]float64, p.Runs)
			for r := range col {
				col[r] = vals[(pt*p.Runs+r)*metrics+m]
			}
			g.raw[pt][m] = col
			if g.sum[pt][m], err = mergeSummary(col); err != nil {
				return grid{}, err
			}
		}
	}
	return g, nil
}

// mergeSummary folds per-task observations into a Summary by merging
// single-observation accumulators in task-index order. Because the fold
// order is fixed by the slot layout — never by goroutine scheduling — the
// result is bitwise-deterministic for any worker count.
func mergeSummary(xs []float64) (stats.Summary, error) {
	var acc stats.Running
	for _, x := range xs {
		var one stats.Running
		one.Add(x)
		acc.Merge(&one)
	}
	return acc.Summary()
}
