// Package stats provides the summary statistics used by the evaluation
// harness: running moments, sample mean/variance, and the 95% Student-t
// confidence intervals the paper reports over 10 independent simulation runs.
package stats

import (
	"errors"
	"math"
)

// ErrNoData is returned by summaries over empty samples.
var ErrNoData = errors.New("stats: no data")

// Running accumulates moments of a stream of observations using Welford's
// numerically stable recurrence. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddAll incorporates every observation in xs.
func (r *Running) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no data.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation, or 0 with no data.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no data.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean, or 0 with no data.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	mean := r.mean + delta*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}

// Summary is a point estimate with a symmetric confidence half-width, i.e.
// Mean +/- HalfWidth at the stated confidence level.
type Summary struct {
	N         int
	Mean      float64
	StdDev    float64
	HalfWidth float64
}

// Lo returns the lower confidence bound.
func (s Summary) Lo() float64 { return s.Mean - s.HalfWidth }

// Hi returns the upper confidence bound.
func (s Summary) Hi() float64 { return s.Mean + s.HalfWidth }

// Summary converts the accumulated moments into a point estimate with a
// 95% Student-t confidence half-width (zero below two observations), or
// ErrNoData when nothing was accumulated.
func (r *Running) Summary() (Summary, error) {
	if r.n == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: r.n, Mean: r.Mean(), StdDev: r.StdDev()}
	if r.n >= 2 {
		s.HalfWidth = tCritical95(r.n-1) * r.StdErr()
	}
	return s, nil
}

// Summarize computes the sample mean and 95% Student-t confidence half-width
// of xs. With a single observation the half-width is zero.
func Summarize(xs []float64) (Summary, error) {
	var r Running
	r.AddAll(xs)
	return r.Summary()
}

// tTable95 holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation 1.96 is used. The df=9 entry
// (2.262) is the one exercised by the paper's 10-run experiments.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func tCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.96
}

// JainIndex returns Jain's fairness index of xs:
// (sum x)^2 / (n * sum x^2), which is 1/n when one element holds
// everything and 1 when all elements are equal. Non-positive inputs are
// allowed; an all-zero vector returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// JainAccumulator accumulates the sufficient statistics of Jain's fairness
// index (count, sum, sum of squares) so the index can be folded across
// shards: each shard Adds its observations in ascending user order, and the
// per-shard accumulators are Merged in ascending shard order after the
// join. Merging into a zero accumulator copies the operand exactly, so a
// single-shard fold reproduces JainIndex bit for bit. The zero value is
// ready to use.
type JainAccumulator struct {
	n     int
	sum   float64
	sumSq float64
}

// Add incorporates one observation.
func (a *JainAccumulator) Add(x float64) {
	a.n++
	a.sum += x
	a.sumSq += x * x
}

// Merge combines another accumulator into a. Fold accumulators in ascending
// shard order for deterministic results.
func (a *JainAccumulator) Merge(o *JainAccumulator) {
	if o.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *o
		return
	}
	a.n += o.n
	a.sum += o.sum
	a.sumSq += o.sumSq
}

// N returns the number of observations.
func (a *JainAccumulator) N() int { return a.n }

// Index returns Jain's fairness index of the accumulated observations,
// with the same conventions as JainIndex (0 for no data or an all-zero
// vector) and the identical final arithmetic, so a fold over a single
// shard is bitwise-equal to the direct computation.
func (a *JainAccumulator) Index() float64 {
	if a.n == 0 {
		return 0
	}
	if a.sumSq == 0 {
		return 0
	}
	return a.sum * a.sum / (float64(a.n) * a.sumSq)
}
