package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// benchParams returns the grid the worker-scaling benchmarks run on. The
// original QuickParams grid (2 runs x 3 schemes = 6 tasks) was too small
// for the workers=1 vs workers=4 comparison to mean anything: 6 tasks of
// very different cost (Proposed dominates the heuristics) over 4 workers
// leave two workers idle for most of the wall clock, so the measured
// "speedup" was mostly scheduling noise. 4 runs x 3 schemes = 12 tasks is
// divisible by 4 and — because runGrid dispatches in ascending index order,
// scheme-major — each wave of 4 same-scheme tasks has uniform cost, so an
// idle-free schedule exists and the sweep measures hardware scaling rather
// than load imbalance.
func benchParams() Params {
	p := QuickParams()
	p.Runs = 4
	return p
}

// BenchmarkFig5Quick measures the replication engine on the heaviest
// per-user figure (three interfering FBSs, nine users) at quick scale,
// sequential versus parallel. With at least 4 CPUs available the
// workers=4 case should run at least twice as fast as workers=1; on fewer
// CPUs the ratio is capped by the hardware, so the benchmark logs NumCPU
// and GOMAXPROCS to say which regime a result came from. The outputs are
// bitwise-identical either way — only the schedule differs.
func BenchmarkFig5Quick(b *testing.B) {
	b.Logf("NumCPU=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchParams()
			p.Parallel.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fig5(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGammaTradeoffQuick covers the widest grid (5 gamma points x
// schemes x runs), where the flattened index layout has the most slots to
// keep the pool busy.
func BenchmarkGammaTradeoffQuick(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := benchParams()
			p.Parallel.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GammaTradeoff(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
