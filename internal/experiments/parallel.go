package experiments

import (
	"fmt"

	"femtocr/internal/par"
	"femtocr/internal/stats"
)

// runGrid is the replication contract every experiment driver shares. It
// calls cell(pt, BaseSeed+r, out) for every point pt < points and run
// r < p.Runs as task i = pt*p.Runs + r of par.RunGrid over
// p.Parallel.Workers workers; cell fills out, its task's own slot of
// length metrics, with that run's results. After the join each
// (point, metric) column is folded in ascending run order by
// mergeSummary into sums[pt][m], so the figures are bitwise-identical for
// any worker count. A failing run's error is returned with its run index.
func runGrid(p Params, points, metrics int, cell func(pt int, seed uint64, out []float64) error) (sums [][]stats.Summary, err error) {
	vals := make([]float64, points*p.Runs*metrics)
	err = par.RunGrid(points*p.Runs, p.Parallel.EffectiveWorkers(), func(i int) error {
		r := i % p.Runs
		if err := cell(i/p.Runs, p.BaseSeed+uint64(r), vals[i*metrics:(i+1)*metrics]); err != nil {
			return fmt.Errorf("run %d: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sums = make([][]stats.Summary, points)
	col := make([]float64, p.Runs)
	for pt := range sums {
		sums[pt] = make([]stats.Summary, metrics)
		for m := range sums[pt] {
			for r := range col {
				col[r] = vals[(pt*p.Runs+r)*metrics+m]
			}
			if sums[pt][m], err = mergeSummary(col); err != nil {
				return nil, err
			}
		}
	}
	return sums, nil
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
