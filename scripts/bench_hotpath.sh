#!/usr/bin/env bash
# Benchmark the per-slot hot path and compare it against the checked-in
# baseline, benchstat-style. Runs the core solver and sim slot-stepping
# benchmarks with -benchmem, pairs each result with the same benchmark in
# scripts/bench_hotpath_baseline.txt (raw `go test -bench` output), and
# emits BENCH_hotpath.json with ns/op, B/op, and allocs/op before and
# after plus the fractional reductions. CI uploads the JSON as an artifact
# on every run.
#
# Regression gate: the script exits nonzero when BenchmarkGreedyLazy,
# BenchmarkDualSolver, BenchmarkEquilibriumSolver, or any
# BenchmarkSlotStep* row runs more than 10% slower (ns/op) than its
# baseline entry, so a hot-path regression fails the CI job instead of
# shipping inside a green artifact. Rows are re-recorded by the same
# min-of-N procedure this script uses (a row that reads above its previous
# baseline keeps it), or, when the capture host runs faster or slower
# than the one the baseline was taken on, scaled by the change's own
# ratio to its parent over interleaved captures (the GreedyLazy and
# SlotStep* rows, when warm equilibrium solves began deferring their
# floor probe), so the gate protects the current numbers rather than
# older, slower ones. Its SlotStepProposedSingleDualSolver row went with
# that benchmark when the dual solver left the per-slot path; the cold
# DualSolver row stays gated.
#
# Usage: scripts/bench_hotpath.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_hotpath.json}"
core_benchtime="${FEMTOCR_BENCHTIME:-50x}"
sim_benchtime="${FEMTOCR_BENCHTIME:-20x}"
# Each benchmark runs count times and the minimum ns/op sample is kept —
# the shared CI containers have multi-x clock jitter between scheduling
# windows, and the minimum is the standard noise-robust statistic for
# "how fast is this code", which the 10% gate needs to stay non-flaky.
bench_count="${FEMTOCR_BENCHCOUNT:-5}"
baseline="scripts/bench_hotpath_baseline.txt"

raw=$(
    go test -run '^$' -benchmem -benchtime "$core_benchtime" -count "$bench_count" \
        -bench 'BenchmarkDualSolver$|BenchmarkEquilibriumSolver$|BenchmarkGreedyLazy$|BenchmarkHeuristic1$|BenchmarkHeuristic2$|BenchmarkWaterfill$' \
        ./internal/core/
    go test -run '^$' -benchmem -benchtime "$sim_benchtime" -count "$bench_count" \
        -bench 'BenchmarkSlotStep|BenchmarkGOPProposedSingle$|BenchmarkGOPProposedInterfering$' \
        ./internal/sim/
)
echo "$raw"

awk -v out="$out" -v core_benchtime="$core_benchtime" -v sim_benchtime="$sim_benchtime" \
    -v bench_count="$bench_count" \
    -v cpus="$(nproc)" -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" '
# Parse one `go test -bench` result line: name, then value/unit pairs.
# Field positions vary (custom metrics like Q_evals appear mid-line), so
# units are located by scanning, and the CPU-count suffix (-8) is stripped
# for stable keys. Repeated samples of one benchmark (-count > 1) keep the
# minimum-ns/op line, all metrics taken from that same sample.
function parse(line, dest,    f, n, i, name, ns, bytes, allocs) {
    n = split(line, f, /[ \t]+/)
    name = f[1]
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = 0; allocs = 0
    for (i = 3; i <= n; i++) {
        if (f[i] == "ns/op")     ns     = f[i-1]
        if (f[i] == "B/op")      bytes  = f[i-1]
        if (f[i] == "allocs/op") allocs = f[i-1]
    }
    if (ns == "") return
    if (((name, "ns") in dest) && dest[name, "ns"] + 0 <= ns + 0) return
    dest[name, "ns"]     = ns
    dest[name, "bytes"]  = bytes
    dest[name, "allocs"] = allocs
    if (!((name) in seen)) { order[++count] = name; seen[name] = 1 }
}
FILENAME == baseline && /^Benchmark/ { parse($0, before); next }
FILENAME != baseline && /^Benchmark/ { parse($0, after); next }
FILENAME != baseline && /^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
FILENAME != baseline && /^goos:/ { goos = $2 }
FILENAME != baseline && /^goarch:/ { goarch = $2 }
END {
    printf "{\n" > out
    printf "  \"goos\": \"%s\",\n", goos > out
    printf "  \"goarch\": \"%s\",\n", goarch > out
    printf "  \"cpu\": \"%s\",\n", cpu > out
    printf "  \"cpus\": %d,\n", cpus > out
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs > out
    printf "  \"benchtime_core\": \"%s\",\n", core_benchtime > out
    printf "  \"benchtime_sim\": \"%s\",\n", sim_benchtime > out
    printf "  \"bench_count\": %d,\n", bench_count > out
    printf "  \"statistic\": \"min ns/op sample per benchmark\",\n" > out
    printf "  \"baseline\": \"scripts/bench_hotpath_baseline.txt\",\n" > out
    printf "  \"caveat\": \"per-task ns/op measured on a shared %d-CPU container whose clock jitters between scheduling windows: compare serialized work (min ns/op, allocs/op), never wall time\",\n", cpus > out
    printf "  \"results\": [\n" > out
    emitted = 0
    failed = 0
    for (i = 1; i <= count; i++) {
        name = order[i]
        if (!((name, "ns") in before) || !((name, "ns") in after)) continue
        if ((name == "GreedyLazy" || name == "DualSolver" || \
             name == "EquilibriumSolver" || name ~ /^SlotStep/) && \
            after[name, "ns"] > 1.10 * before[name, "ns"]) {
            printf "bench_hotpath.sh: REGRESSION: %s ns/op %.1f is >10%% above baseline %.1f\n", \
                name, after[name, "ns"], before[name, "ns"] > "/dev/stderr"
            failed = 1
        }
        if (emitted++) printf ",\n" > out
        printf "    {\"name\": \"%s\",\n", name > out
        printf "     \"before\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d},\n", \
            before[name, "ns"], before[name, "bytes"], before[name, "allocs"] > out
        printf "     \"after\":  {\"ns_per_op\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d},\n", \
            after[name, "ns"], after[name, "bytes"], after[name, "allocs"] > out
        printf "     \"ns_reduction\": %.3f,\n", \
            1 - after[name, "ns"] / before[name, "ns"] > out
        allocs_red = (before[name, "allocs"] > 0) ? 1 - after[name, "allocs"] / before[name, "allocs"] : 0
        printf "     \"allocs_reduction\": %.3f}", allocs_red > out
    }
    printf "\n  ]\n}\n" > out
    if (emitted == 0) {
        print "bench_hotpath.sh: no benchmark pairs matched the baseline" > "/dev/stderr"
        exit 1
    }
    if (failed) exit 2
}
' baseline="$baseline" "$baseline" <(echo "$raw")
echo "wrote $out"
