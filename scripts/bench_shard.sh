#!/usr/bin/env bash
# Benchmark the sharded metro engine and record the result as BENCH JSON
# (format documented in EXPERIMENTS.md). Runs one fixed Poisson metro
# topology through `femtosim -scenario metro -json` at each worker count of
# 1, 2, 4 and 8 that does not exceed nproc (the engine never runs more
# workers than GOMAXPROCS, so a larger count would repeat the nproc row),
# reads each run's ShardedResult with jq (its MeanPSNR and its Timing
# ns accounting), and emits BENCH_shard.json with the per-task ns
# accounting of each run plus a cross-check that every run folded to the
# identical PSNR.
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
# from a regression; each row's "workers" is the effective count,
# min(requested, GOMAXPROCS).
#
# Usage: scripts/bench_shard.sh [output.json]
# Env:   FEMTOCR_METRO_FBS   (default 400)  femtocells in the scatter
#        FEMTOCR_METRO_USERS (default 2)    generated streams per cell
#        FEMTOCR_METRO_GOPS  (default 1)    GOP horizon per run
# Needs: jq
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
gomaxprocs="${GOMAXPROCS:-$cpus}"
for workers in 1 2 4 8; do
    if [ "$workers" -gt "$cpus" ]; then
        continue
    fi
    # femtosim prints its text report first; the JSON object starts at the
    # first line that opens one.
    "$bin/femtosim" -scenario metro -metro-fbs "$fbs" -metro-users "$users" \
        -gops "$gops" -seed 1 -workers "$workers" -json |
        sed -n '/^{/,$p' |
        jq -c --argjson workers "$((workers < gomaxprocs ? workers : gomaxprocs))" '{
            workers: $workers,
            wall_ns: .Timing.WallNS,
            sum_task_ns: .Timing.SumTaskNS,
            max_task_ns: .Timing.MaxTaskNS,
            ideal_speedup: ((.Timing.SumTaskNS / .Timing.MaxTaskNS * 1000 | round) / 1000),
            psnr: .MeanPSNR
        }' | tee -a "$bin/rows.jsonl"
done

jq -s --argjson fbs "$fbs" --argjson users "$users" --argjson gops "$gops" \
    --argjson cpus "$cpus" --argjson gomaxprocs "$gomaxprocs" '{
    benchmark: "metro-sharded",
    package: "femtocr/cmd/femtosim",
    topology: {layout: "poisson", fbs: $fbs, users_per_fbs: $users, gops: $gops, seed: 1},
    cpus: $cpus,
    gomaxprocs: $gomaxprocs,
    results: map(del(.psnr)),
    psnr: .[0].psnr,
    psnr_identical_across_workers: (map(.psnr) | unique | length == 1)
}' "$bin/rows.jsonl" >"$out"
if [ "$(jq .psnr_identical_across_workers "$out")" != true ]; then
    echo "bench_shard.sh: PSNR diverged across worker counts" >&2
    exit 1
fi
echo "wrote $out"
