// Package par provides the deterministic parallel-execution primitives
// shared by the simulation and experiment layers: the Parallelism knob
// (the worker count) and the RunGrid worker pool whose results are
// bitwise-identical for any worker count. It sits below both
// internal/sim and internal/experiments so the two can share one contract
// without an import cycle.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism is the parallel-execution knob threaded through the
// simulation and experiment APIs. The zero value means "auto": one worker
// per available CPU. It only changes the wall-clock schedule — every
// result folded through RunGrid is bitwise-identical for any setting.
//
// Workers never exceed GOMAXPROCS: tasks are CPU-bound, so extra workers
// add no throughput, and a task timed by its own wall clock would count
// the time it waits for a CPU. A task's wall time equals its CPU time only
// while no other process contends for the CPUs.
type Parallelism struct {
	// Workers caps the number of concurrently executing tasks at
	// min(Workers, runtime.GOMAXPROCS(0)); zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// EffectiveWorkers resolves the worker count: Workers when positive, else
// one per available CPU, and never more than runtime.GOMAXPROCS(0).
func (p Parallelism) EffectiveWorkers() int {
	if n := runtime.GOMAXPROCS(0); p.Workers <= 0 || p.Workers > n {
		return n
	}
	return p.Workers
}

// RunGrid executes n independent tasks over a pool of workers, calling
// do(i) exactly once for every index not skipped by cancellation. Each task
// must write its output into its own preallocated slot, and all aggregation
// must happen after RunGrid returns, in index order — then the results are
// identical, bit for bit, for any worker count; only the wall-clock
// schedule changes. On the first task error the remaining undispatched
// tasks are cancelled, and the lowest-index recorded error is returned
// (indices are dispatched in ascending order, so this is the error a
// sequential loop would have hit first among those that ran). A task panic
// is recovered into an error naming the task's index.
func RunGrid(n, workers int, do func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := runTask(do, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// The atomic dispatch counter hands each index to exactly one worker,
	// so errs[i] has a single writer.
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := runTask(do, i); err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask invokes do(i), converting a panic into an error that names the
// failing task, so one bad grid point reports its index instead of taking
// down the whole sweep with a bare stack trace.
func runTask(do func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("task %d panicked: %v", i, p)
		}
	}()
	return do(i)
}
