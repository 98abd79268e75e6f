#!/usr/bin/env bash
# Benchmark the sharded metro engine and record the result as BENCH JSON
# (format documented in EXPERIMENTS.md). Runs one fixed Poisson metro
# topology through `femtosim -scenario metro` at each worker count of 1, 2,
# 4 and 8 that does not exceed nproc (the engine never runs more workers
# than GOMAXPROCS, so a larger count would repeat the nproc row) and emits
# BENCH_shard.json with the per-task ns accounting of each run plus a
# cross-check that every run folded to the identical PSNR.
#
# The engine runs one grid task per shard (interference component), and
# the fold is bitwise-deterministic for any -workers setting, so the
# interesting numbers are the ns bookkeeping, not the wall clock:
# wall-clock speedup is capped at min(workers, cpus) — at most ~2x on the
# 2-CPU containers the checked-in JSON comes from — but sum_task_ns
# (serialized work) and max_task_ns (critical path: the slowest shard)
# are schedule-arithmetic, and their ratio — ideal_speedup — is the
# speedup a machine with enough CPUs would reach. Task times are wall
# times: they equal CPU time only while no other process contends for the
# CPUs. The JSON records "cpus"/"gomaxprocs" so readers can tell the cap
# from a regression; each row's "workers" is the effective count.
#
# Usage: scripts/bench_shard.sh [output.json]
# Env:   FEMTOCR_METRO_FBS   (default 400)  femtocells in the scatter
#        FEMTOCR_METRO_USERS (default 2)    generated streams per cell
#        FEMTOCR_METRO_GOPS  (default 1)    GOP horizon per run
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_shard.json}"
fbs="${FEMTOCR_METRO_FBS:-400}"
users="${FEMTOCR_METRO_USERS:-2}"
gops="${FEMTOCR_METRO_GOPS:-1}"

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/femtosim" ./cmd/femtosim

cpus=$(nproc)
stats=""
for workers in 1 2 4 8; do
    if [ "$workers" -gt "$cpus" ]; then
        continue
    fi
    line=$("$bin/femtosim" -scenario metro -metro-fbs "$fbs" \
        -metro-users "$users" -gops "$gops" -seed 1 \
        -workers "$workers" | grep '^SHARDSTATS ')
    echo "$line"
    stats+="$line"$'\n'
done

printf '%s' "$stats" | awk -v out="$out" -v fbs="$fbs" -v users="$users" \
    -v gops="$gops" -v cpus="$cpus" \
    -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" '
{
    n++
    for (i = 2; i <= NF; i++) {
        split($i, kv, "=")
        v[n, kv[1]] = kv[2]
    }
}
END {
    if (n == 0) {
        print "bench_shard.sh: no SHARDSTATS rows" > "/dev/stderr"
        exit 1
    }
    identical = "true"
    for (r = 2; r <= n; r++)
        if (v[r, "psnr"] != v[1, "psnr"]) identical = "false"
    printf "{\n" > out
    printf "  \"benchmark\": \"metro-sharded\",\n" > out
    printf "  \"package\": \"femtocr/cmd/femtosim\",\n" > out
    printf "  \"topology\": {\"layout\": \"poisson\", \"fbs\": %d, \"users_per_fbs\": %d, \"gops\": %d, \"seed\": 1},\n", fbs, users, gops > out
    printf "  \"cpus\": %d,\n", cpus > out
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs > out
    printf "  \"results\": [\n" > out
    for (r = 1; r <= n; r++) {
        # ns counts overflow the 32-bit %d of mawk; print as exact floats.
        printf "    {\"workers\": %d, \"wall_ns\": %.0f, \"sum_task_ns\": %.0f, \"max_task_ns\": %.0f, \"ideal_speedup\": %s}%s\n", \
            v[r, "workers"], v[r, "wall_ns"], \
            v[r, "sum_task_ns"], v[r, "max_task_ns"], \
            v[r, "ideal_speedup"], (r < n ? "," : "") > out
    }
    printf "  ],\n" > out
    printf "  \"psnr\": %s,\n", v[1, "psnr"] > out
    printf "  \"psnr_identical_across_workers\": %s\n", identical > out
    printf "}\n" > out
    if (identical != "true") {
        print "bench_shard.sh: PSNR diverged across worker counts" > "/dev/stderr"
        exit 1
    }
}
'
echo "wrote $out"
