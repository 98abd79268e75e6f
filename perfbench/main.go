// Command perfbench is the repository benchmark. It drives one named
// workload through the public entry points (netmodel.NewNetwork, sim.Run,
// sim.RunSharded) in a closed loop for a fixed time, checks every output,
// and prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload paper-single --seed 1000 --seconds 20 --trace 0
//
// Op and set-up times are reported in reference time: each is rescaled by
// a calibration kernel timed right after it (see calib.go), which cancels
// the shared host's speed swings; the wall times are printed alongside.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates engine ops with a traced replay of the same ops (see
// replay.go) and reports the per-layer metrics instead; the replay must
// reproduce every engine output bit for bit. perfbench/run.sh builds and
// runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"femtocr/internal/safeio"
	"femtocr/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the command with its output streams; it returns the exit code.
// Output errors are sticky: a run whose result cannot be written fails.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := safeio.NewWriter(stdoutW), safeio.NewWriter(stderrW)
	code := runTo(args, stdout, stderr)
	if code == 0 && stdout.Err() != nil {
		return 1
	}
	return code
}

func runTo(args []string, stdout, stderr *safeio.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
		seed     = fs.Uint64("seed", DefaultSeed, "workload seed")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		traced   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
		spans    = fs.String("spans", "", "traced runs: span CSV path (default .bench_build/spans/<workload>-seed<seed>.csv; - for none)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME [--seed N] [--seconds S>0] [--trace 0|1] [--spans PATH]")
		return 2
	}
	p, err := generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env := readEnvironment()
	envJSON, _ := json.Marshal(env) // plain struct of strings and ints
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	b := &bench{p: p, workers: env.NProc, measure: time.Duration(*seconds * float64(time.Second))}
	if err := b.setup(setupRepeats); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	var metrics map[string]metric
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", p.workload, p.seed))
		}
		metrics, err = b.traced(stdout, path)
	} else {
		metrics, err = b.untraced(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.firstErr != nil {
		fmt.Fprintln(stderr, "perfbench: first failed op:", b.firstErr)
	}
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d attempted=%d failed=%d fail_frac=%g\n",
		p.workload, p.seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// setupRepeats is how many times a run builds its fixture; setup_s is the
// median, which keeps one slow build from moving the metric.
const setupRepeats = 15

// bench is one benchmark run of a plan.
type bench struct {
	p       *plan
	workers int
	measure time.Duration

	f        *fixture
	chk      *checker
	cal      *calibrator
	setupNS  []float64 // wall
	setupRef []float64 // reference time (calib.go)
	buildNS  []float64
	heapMB   float64
	firstErr error

	attempted, failed int
}

// setup builds the fixture n times, keeps the last, and records the live
// heap after a forced GC.
func (b *bench) setup(n int) error {
	b.cal = newCalibrator(b.workers)
	for k := 0; k < n; k++ {
		b.f = nil
		runtime.GC()
		t0 := now()
		f, err := setup(b.p, b.workers)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		b.setupNS = append(b.setupNS, float64(d))
		b.setupRef = append(b.setupRef, refNS(d, b.cal.calibrate(1)))
		b.buildNS = append(b.buildNS, float64(f.buildNS))
		b.f = f
	}
	b.chk = newChecker(b.p, b.f.ranges)
	// The second GC also frees what sync.Pool kept from the first (the
	// solver workspaces), so only the fixture and the program remain; the
	// calibration buffers are dropped for the measurement and rebuilt.
	b.cal = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	b.cal = newCalibrator(b.workers)
	return nil
}

// note records an op failure for the diagnostics line.
func (b *bench) note(err error) {
	if err != nil && b.firstErr == nil {
		b.firstErr = err
	}
}

// engineOp runs and checks engine op i, and returns its wall time and its
// reference time, calibrated on as many goroutines as the op used.
func (b *bench) engineOp(i int) (res *opResult, timing *sim.ShardTiming, wall time.Duration, ref float64) {
	t0 := now()
	res, timing, err := b.f.run(i)
	wall = time.Since(t0)
	n := 1
	if b.p.sharded {
		n = b.workers
	}
	ref = refNS(wall, b.cal.calibrate(n))
	b.note(b.chk.observe(i, res, err))
	if err != nil {
		res = nil
	}
	return res, timing, wall, ref
}

// warmup is how long ops run untimed before measuring, so that pooled
// workspaces and the heap reach their steady size first.
const warmup = time.Second

// warm runs op(0), op(1), ... untimed for at least warmup and returns the
// index of the first op to measure.
func warm(op func(i int)) int {
	i := 0
	for start := now(); i == 0 || time.Since(start) < warmup; i++ {
		op(i)
	}
	return i
}

// untraced measures the end-to-end metrics: after the warm-up, ops run
// back to back until the measured time is up.
func (b *bench) untraced(stdout *safeio.Writer) (map[string]metric, error) {
	first := warm(func(i int) { b.engineOp(i) })
	var opNS, opRef []float64
	var userSlots, slots, refSum float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := now()
	for i := first; time.Since(start) < b.measure; i++ {
		res, _, wall, ref := b.engineOp(i)
		opNS = append(opNS, float64(wall))
		opRef = append(opRef, ref)
		refSum += ref
		if res != nil {
			userSlots += float64(res.users * res.slots)
			slots += float64(res.slots)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.attempted, b.failed = b.chk.attempted, b.chk.failed

	tail := tailPercentile(len(opNS), b.p.tailPct)
	fmt.Fprintf(stdout, "ops n=%d op_ms_tail=p%g (%d ops beyond); wall: op_ms_p50=%.4f op_ms_tail=%.4f setup_s=%.6f\n",
		len(opNS), tail, int(float64(len(opNS))*(1-tail/100)),
		percentile(opNS, 50)/1e6, percentile(opNS, tail)/1e6, percentile(b.setupNS, 50)/1e9)
	return map[string]metric{
		"user_slots_per_s":     {userSlots / (refSum / 1e9), "1/s"},
		"op_ms_p50":            {percentile(opRef, 50) / 1e6, "ms"},
		"op_ms_tail":           {percentile(opRef, tail) / 1e6, "ms"},
		"setup_s":              {percentile(b.setupRef, 50) / 1e9, "s"},
		"setup_heap_mb":        {b.heapMB, "MB"},
		"alloc_bytes_per_slot": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / math.Max(slots, 1), "B"},
	}, nil
}

// traced measures the per-layer metrics: each engine op is followed by the
// traced replay of the same op, whose outputs must match bitwise.
func (b *bench) traced(stdout *safeio.Writer, spansPath string) (map[string]metric, error) {
	first := warm(func(i int) {
		if eres, _, _, _ := b.engineOp(i); eres != nil {
			b.replayOp(i, eres, nil)
		}
	})
	tr := newTracer()
	var engNS, shardNS, sumTask, maxTask, idle []float64
	start := now()
	for i := first; time.Since(start) < b.measure; i++ {
		eres, timing, d, _ := b.engineOp(i)
		engNS = append(engNS, float64(d))
		if timing != nil {
			sumTask = append(sumTask, float64(timing.SumTaskNS))
			maxTask = append(maxTask, float64(timing.MaxTaskNS))
			idle = append(idle, 1-float64(timing.SumTaskNS)/(float64(b.workers)*float64(timing.WallNS)))
			for _, ns := range timing.ShardNS {
				shardNS = append(shardNS, float64(ns))
			}
		}
		if eres != nil {
			b.replayOp(i, eres, tr)
		}
	}
	b.attempted += b.chk.attempted
	b.failed += b.chk.failed

	total, repNS := tr.layerTotals()
	c := tr.counts
	perSlot := func(x float64) float64 { return x / math.Max(float64(c.slots), 1) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	child := int64(0)
	for _, l := range childLayers {
		child += total[l]
	}
	opTotal := float64(total[layerOp])
	ops := float64(len(repNS))
	// The replay runs shards one after another, so on the sharded path it
	// is compared with the engine's serialized work, not its wall time.
	baseNS := engNS
	if b.p.sharded {
		baseNS = sumTask
	}
	shardTail := tailPercentile(len(shardNS), 99)
	fmt.Fprintf(stdout, "traced ops n=%d spans=%d shard_ms_tail=p%g over n=%d\n", len(repNS), tr.n, shardTail, len(shardNS))
	if spansPath != "-" {
		if err := tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return map[string]metric{
		"netmodel.build_ms":            {percentile(b.buildNS, 50) / 1e6, "ms"},
		"netmodel.partition_ms":        {ratio(float64(total[layerPartition]), ops) / 1e6, "ms"},
		"netmodel.subnetwork_ms":       {ratio(float64(total[layerSubnetwork]), ops) / 1e6, "ms"},
		"netmodel.shards":              {float64(b.f.shards), "count"},
		"netmodel.largest_shard_users": {float64(b.f.largestShardUsers), "count"},
		"frontend.ns_per_slot":         {perSlot(float64(total[layerFrontend])), "ns"},
		"frontend.accessed_per_slot":   {perSlot(float64(c.accessed)), "count"},
		"solve.ns_per_call":            {ratio(float64(total[layerSolve]), float64(c.solves)), "ns"},
		"solve.calls_per_slot":         {perSlot(float64(c.solves)), "count"},
		"solve.share":                  {ratio(float64(total[layerSolve]), opTotal), "fraction"},
		"greedy.ns_per_slot":           {perSlot(float64(total[layerGreedy])), "ns"},
		"greedy.q_evals_per_slot":      {perSlot(float64(c.qEvals)), "count"},
		"greedy.steps_per_slot":        {perSlot(float64(c.steps)), "count"},
		"greedy.useful_ratio":          {ratio(float64(c.steps), float64(c.qEvals)), "fraction"},
		"greedy.ns_per_q_eval":         {ratio(float64(total[layerGreedy]), float64(c.qEvals)), "ns"},
		"greedy.share":                 {ratio(float64(total[layerGreedy]), opTotal), "fraction"},
		"realize.ns_per_slot":          {perSlot(float64(total[layerRealize])), "ns"},
		"sim.self_ns_per_slot":         {perSlot(opTotal - float64(child)), "ns"},
		"shard.ms_p50":                 {percentile(shardNS, 50) / 1e6, "ms"},
		"shard.ms_tail":                {percentile(shardNS, shardTail) / 1e6, "ms"},
		"par.sum_task_ms":              {percentile(sumTask, 50) / 1e6, "ms"},
		"par.max_task_ms":              {percentile(maxTask, 50) / 1e6, "ms"},
		"par.idle_frac":                {percentile(idle, 50), "fraction"},
		"trace.overhead_frac":          {ratio(percentile(repNS, 50), percentile(baseNS, 50)) - 1, "fraction"},
	}, nil
}

// replayOp replays op i under tr and compares it with the engine result.
func (b *bench) replayOp(i int, engine *opResult, tr *tracer) {
	b.attempted++
	res, err := b.f.replay(i, tr)
	if err == nil {
		err = sameOutputs(engine, res)
	}
	if err != nil {
		b.failed++
		b.note(fmt.Errorf("replay op %d: %w", i, err))
	}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics, or 0 for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile returns want when at least ten of n samples lie beyond it,
// else the highest percentile that has ten beyond it (never below the
// median).
func tailPercentile(n int, want float64) float64 {
	if float64(n)*(1-want/100) >= 10 {
		return want
	}
	p := math.Floor(100 * (1 - 10/float64(max(n, 1))))
	return math.Max(p, 50)
}
