package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// newBench generates a plan and builds its fixture once.
func newBench(t *testing.T, workload string, seed uint64) *bench {
	t.Helper()
	p, err := generate(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{p: p, workers: 2}
	if err := b.setup(1); err != nil {
		t.Fatal(err)
	}
	return b
}

// The traced replay must reproduce the engine bitwise on every workload,
// with tracing on and off, including TrackBound's fading draws.
func TestReplayMatchesEngine(t *testing.T) {
	cases := []struct {
		workload string
		seed     uint64
		ops      []int
	}{
		{"paper-single", DefaultSeed, []int{0, 13, 27, 49}},
		{"paper-single", 7, []int{5}},
		{"paper-interfering", DefaultSeed, []int{0, 41}},
		{"paper-interfering", 7, []int{22}},
		{"metro", metroReference.seed, []int{0}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		b := newBench(t, tc.workload, tc.seed)
		for _, i := range tc.ops {
			engine, _, err := b.f.run(i)
			if err != nil {
				t.Fatalf("%s op %d: %v", tc.workload, i, err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				replay, err := b.f.replay(i, tr)
				if err != nil {
					t.Fatalf("%s op %d replay: %v", tc.workload, i, err)
				}
				if err := sameOutputs(engine, replay); err != nil {
					t.Errorf("%s seed %d op %d (traced=%v): %v", tc.workload, tc.seed, i, tr != nil, err)
				}
				if tr != nil && tr.counts.slots == 0 {
					t.Errorf("%s op %d: traced replay counted no slots", tc.workload, i)
				}
			}
		}
	}
}

// csvColumn reads one column of a results/ CSV.
func csvColumn(t *testing.T, name, column string) []float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, h := range rows[0] {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s has no column %q", name, column)
	}
	var out []float64
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// The embedded references are exactly the checked-in results.
func TestReferencesMatchCheckedInResults(t *testing.T) {
	same := func(what string, got, want []float64) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s[%d] = %.17g, results/ has %.17g", what, i, got[i], want[i])
			}
		}
	}
	for _, w := range []string{"paper-single", "paper-interfering"} {
		ref := paperReferences[w]
		same(w+" Proposed", ref.proposed, csvColumn(t, ref.csv, "Proposed_mean"))
		if ref.bound != nil {
			same(w+" Upper bound", ref.bound, csvColumn(t, ref.csv, "Upper bound_mean"))
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCH_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	var shard struct {
		PSNR     float64 `json:"psnr"`
		Topology struct {
			Seed uint64 `json:"seed"`
		} `json:"topology"`
	}
	if err := json.Unmarshal(raw, &shard); err != nil {
		t.Fatal(err)
	}
	same("metro PSNR", []float64{metroReference.psnr}, []float64{shard.PSNR})
	if shard.Topology.Seed != metroReference.seed {
		t.Errorf("metro reference seed %d, BENCH_shard.json has %d", metroReference.seed, shard.Topology.Seed)
	}
}

// runPoint feeds ops [0, paperRuns) of b through its checker.
func runPoint(t *testing.T, b *bench) error {
	t.Helper()
	var first error
	for i := 0; i < paperRuns; i++ {
		res, _, err := b.f.run(i)
		if err := b.chk.observe(i, res, err); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// A reference value one ulp off fails every op of its point; the true
// reference fails none.
func TestPerturbedReferenceFailsOps(t *testing.T) {
	b := newBench(t, "paper-single", DefaultSeed)
	if b.chk.paper == nil {
		t.Fatal("default seed has no paper reference")
	}
	if err := runPoint(t, b); err != nil || b.chk.failed != 0 {
		t.Fatalf("true reference: failed=%d, %v", b.chk.failed, err)
	}

	b.chk = newChecker(b.p, b.f.ranges)
	ref := *b.chk.paper
	ref.proposed = append([]float64(nil), ref.proposed...)
	ref.proposed[0] = math.Nextafter(ref.proposed[0], math.Inf(1))
	b.chk.paper = &ref
	if err := runPoint(t, b); err == nil || b.chk.failed != paperRuns {
		t.Fatalf("perturbed reference: failed=%d of %d, err=%v", b.chk.failed, b.chk.attempted, err)
	}

	if testing.Short() {
		return
	}
	m := newBench(t, "metro", metroReference.seed)
	wrong := math.Nextafter(metroReference.psnr, 0)
	m.chk.metro = &wrong
	res, _, err := m.f.run(0)
	if err := m.chk.observe(0, res, err); err == nil || m.chk.failed != 1 {
		t.Fatalf("perturbed metro reference: failed=%d, err=%v", m.chk.failed, err)
	}
}

// Seeds without a reference fall back to invariants, which reject
// out-of-range quality.
func TestInvariantFallback(t *testing.T) {
	b := newBench(t, "paper-single", 7)
	if b.chk.paper != nil {
		t.Fatal("seed 7 should have no reference")
	}
	res, _, err := b.f.run(0)
	if err := b.chk.observe(0, res, err); err != nil {
		t.Fatalf("seed 7 op 0: %v", err)
	}
	bad := *res
	bad.perUser = append([]float64(nil), res.perUser...)
	bad.perUser[1] = math.NaN()
	if err := b.chk.observe(1, &bad, nil); err == nil || b.chk.failed != 1 {
		t.Fatalf("NaN user PSNR: failed=%d, err=%v", b.chk.failed, err)
	}
}

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// A short run prints exactly the metrics BENCHMARK.json declares.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	for trace, key := range []string{"end_to_end", "per_layer"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "paper-single", "--seed", "3", "--seconds", "0.2",
			"--trace", strconv.Itoa(trace), "--spans", "-"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		var got []string
		for name := range rep.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if want := benchmarkMetricNames(t, key); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace %d metrics\n got %v\nwant %v", trace, got, want)
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
