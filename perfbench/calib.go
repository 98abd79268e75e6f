package main

import (
	"math"
	"time"

	"femtocr/internal/par"
)

// Speed calibration. On a shared host the same op can take 1.7x longer for
// minutes at a time while other tenants load the machine, which no
// statistic over one run can undo. Every timed op is therefore followed by
// a fixed kernel, and the op's wall time is rescaled by how long the
// kernel took right then: ref = wall x calRefNS / kernel. Ops and kernel
// slow down together, so the ratio holds still: over six 15 s runs of
// paper-interfering ops the median's run-to-run spread (interquartile
// range over median) was 0.36 in wall time and 0.08 in reference time. The
// kernel is part of the benchmark, not of the program, so no change to the
// program can move it; changing it would change every timing unit.

// calRefNS is the kernel's duration on the reference machine, an unloaded
// Intel Xeon vCPU at 2.1 GHz, so reference times read as milliseconds
// there.
const calRefNS = 1.4e6

// kernelLen sizes the kernel's buffer: 512 KiB, beyond L1 like the
// simulator's solver workspaces, so cache contention slows both alike.
const kernelLen = 1 << 16

// kernel is the calibration workload: log/sqrt arithmetic with
// pseudo-random loads and stores over buf, roughly the instruction and
// memory mix of the simulator's solvers (an L1-resident kernel tracked the
// greedy workload's slowdowns only half as well). It returns a value so
// the work cannot be optimized away.
func kernel(buf []float64) float64 {
	for i := range buf {
		buf[i] = float64(i&15) + 0.5
	}
	mask := len(buf) - 1
	acc := 0.0
	for r := 0; r < 5; r++ {
		for i := 0; i < len(buf); i += 4 {
			j := (i*2654435761 + r) & mask
			x := buf[j]
			y := math.Log(x+1) / (1 + math.Sqrt(x))
			buf[j] = y + 0.5
			acc += y
		}
	}
	return acc
}

// calibrator runs the kernel on up to n goroutines at once, each on a
// buffer of its own allocated up front, so calibrating allocates nothing.
type calibrator struct {
	bufs [][]float64
	ns   []int64
	acc  []float64
	sink float64
}

func newCalibrator(n int) *calibrator {
	c := &calibrator{bufs: make([][]float64, n), ns: make([]int64, n), acc: make([]float64, n)}
	for i := range c.bufs {
		c.bufs[i] = make([]float64, kernelLen)
	}
	return c
}

// calibrate runs the kernel once on each of n goroutines at the same time
// (n = the workers the op used) and returns the mean kernel duration.
func (c *calibrator) calibrate(n int) time.Duration {
	// Tasks only write their own slots; the kernel cannot fail.
	_ = par.RunGrid(n, n, func(i int) error {
		t0 := now()
		c.acc[i] = kernel(c.bufs[i])
		c.ns[i] = int64(time.Since(t0))
		return nil
	})
	var sum int64
	for i := 0; i < n; i++ {
		sum += c.ns[i]
		c.sink += c.acc[i]
	}
	return time.Duration(sum / int64(n))
}

// refNS rescales a wall duration measured next to calibration cal.
func refNS(wall, cal time.Duration) float64 {
	return float64(wall) * calRefNS / float64(cal)
}
