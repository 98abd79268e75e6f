package sim

import (
	"math"

	"femtocr/internal/core"
)

// WarmStartReport summarizes the per-slot solver iteration statistics of one
// run (Result.Warm, populated when Options.SolveStats is set). The
// iteration unit is the equilibrium solver's outer demand probes.
type WarmStartReport struct {
	// Stats carries the session counters of the slot-level solves.
	Stats core.SessionStats
	// RelaxStats carries the counters of the TrackBound relaxation solves,
	// which run through their own session (a different problem family must
	// not thrash the slot session's carried state); nil unless the run
	// tracks that bound (TrackBound with Proposed on an interfering
	// network).
	RelaxStats *core.SessionStats `json:",omitempty"`
	// IterMean and the quantiles summarize iterations per slot solve.
	IterMean float64
	IterP50  int
	IterP90  int
	IterP99  int
	IterMax  int
	// Hist is the per-solve iteration histogram backing the quantiles
	// (index = iterations, capped at the last bucket). It is carried so
	// sharded runs can fold quantiles exactly, but excluded from JSON.
	Hist []int64 `json:"-"`
}

// mergeWarm folds other into w: counters add, histograms add bucket-wise,
// and the quantiles are recomputed from the merged histogram, so a fold over
// shards reports the same quantiles as one session that saw every solve.
func (w *WarmStartReport) mergeWarm(other *WarmStartReport) {
	if other == nil {
		return
	}
	w.Stats.Merge(&other.Stats)
	if other.RelaxStats != nil {
		if w.RelaxStats == nil {
			w.RelaxStats = &core.SessionStats{}
		}
		w.RelaxStats.Merge(other.RelaxStats)
	}
	if len(w.Hist) < len(other.Hist) {
		grown := make([]int64, len(other.Hist))
		copy(grown, w.Hist)
		w.Hist = grown
	}
	for i, c := range other.Hist {
		w.Hist[i] += c
	}
	w.finalize()
}

// finalize recomputes the mean and quantiles from the counters and histogram.
func (w *WarmStartReport) finalize() {
	if w.Stats.Solves > 0 {
		w.IterMean = float64(w.Stats.TotalIters) / float64(w.Stats.Solves)
	} else {
		w.IterMean = 0
	}
	w.IterP50 = histQuantile(w.Hist, w.Stats.Solves, 0.50)
	w.IterP90 = histQuantile(w.Hist, w.Stats.Solves, 0.90)
	w.IterP99 = histQuantile(w.Hist, w.Stats.Solves, 0.99)
	w.IterMax = w.Stats.MaxIters
}

// histQuantile returns the nearest-rank q-quantile of the iteration
// histogram, or -1 when no solve was recorded.
func histQuantile(hist []int64, solves int, q float64) int {
	if len(hist) == 0 || solves == 0 {
		return -1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest rank: the smallest count with at least q·n solves at or
	// below it. The slack keeps a product that rounding lifts a hair above
	// a whole number (0.07·100) on that number's rank.
	r := q * float64(solves)
	target := int64(math.Ceil(r - 1e-9*r))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range hist {
		cum += c
		if cum >= target {
			return i
		}
	}
	return len(hist) - 1
}

// warmReport builds the Result.Warm report from the allocation stage's
// sessions, nil when SolveStats was not requested.
func (e *engine) warmReport() *WarmStartReport {
	sess, relax := e.stage.session, e.stage.relaxSession
	if !e.opts.SolveStats || sess == nil {
		return nil
	}
	w := &WarmStartReport{
		Stats: sess.Stats(),
		Hist:  sess.HistCopy(),
	}
	if relax != nil {
		rs := relax.Stats()
		w.RelaxStats = &rs
	}
	w.finalize()
	return w
}
