#!/usr/bin/env bash
# End-to-end figure benchmark: the serialized CPU time cmd/figures spends
# regenerating each paper-scale figure, recorded as BENCH_e2e.json. It is
# the end-to-end number behind a hot-path claim, not a CI gate.
#
# cmd/figures runs once per registry entry (-fig ID, each id read from
# the -fig usage that `figures -h` prints, in registry order) and once for
# the whole set (-fig everything), each with -workers 1, and the script
# takes the process's user+sys CPU time: with one worker that is the
# serialized work, comparable across machines with different CPU counts.
# Each row runs -count times (default 3) and keeps the minimum, the
# noise-robust statistic on a shared host. The outputs of the everything
# run are compared byte for byte against results/; a mismatch fails the
# script.
#
# With -b DIR the same runs are also taken on the checkout in DIR (for
# example `git archive <commit> | tar -x -C DIR`, whose figures must accept
# every id this tree's does), alternating the two
# trees run by run so both see the same host load, and each row records
# before (DIR) and after (this tree) with the fractional CPU reduction.
# Which tree runs first flips on every repetition, so neither always pays
# for a cold cache or rides a warm one, and each row also records the
# paired view: the median over repetitions of the after/before CPU ratio
# and the number of repetitions the change (after) won.
#
# Usage: scripts/bench_e2e.sh [-b BASELINE_DIR] [output.json]
# Env:   FEMTOCR_E2E_COUNT (default 3)   runs per row and tree
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=""
if [ "${1:-}" = "-b" ]; then
    baseline=$(cd "$2" && pwd)
    shift 2
fi
out="${1:-BENCH_e2e.json}"
count="${FEMTOCR_E2E_COUNT:-3}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/after" ./cmd/figures
trees="after"
if [ -n "$baseline" ]; then
    (cd "$baseline" && go build -o "$tmp/before" ./cmd/figures)
    trees="before after"
fi

# cpu_of BIN ARGS... runs one figures invocation and prints its user+sys
# CPU seconds.
cpu_of() {
    local TIMEFORMAT='%3U %3S' t
    t=$({ time "$@" >/dev/null; } 2>&1)
    awk -v t="$t" 'BEGIN { split(t, f, " "); printf "%.3f", f[1] + f[2] }'
}

# Row ids: every registry entry, as `figures -h` lists them after "or one
# of: " (cmd/figures' TestRegistryCoverage pins that list to the registry),
# then the whole set. -h exits nonzero after printing the usage.
usage=$("$tmp/after" -h 2>&1 || true)
ids=$(sed -n 's/.*or one of: \(.*\) (default "all")$/\1/p' <<<"$usage")
if [ -z "$ids" ]; then
    echo "bench_e2e.sh: no figure ids in the -fig usage of figures -h" >&2
    exit 1
fi
rows="$ids everything"

samples="$tmp/samples"
: >"$samples"
for rep in $(seq "$count"); do
    order=$trees
    if [ -n "$baseline" ] && [ $((rep % 2)) -eq 0 ]; then
        order="after before"
    fi
    for row in $rows; do
        for tree in $order; do
            if [ "$row" = everything ]; then
                c=$(cpu_of "$tmp/$tree" -fig everything -workers 1 -out "$tmp/out-$tree")
            else
                c=$(cpu_of "$tmp/$tree" -fig "$row" -workers 1)
            fi
            echo "$tree $row $c $rep" | tee -a "$samples"
        done
    done
done

identical=true
files=0
for f in results/*; do
    files=$((files + 1))
    for tree in $trees; do
        if ! cmp -s "$f" "$tmp/out-$tree/$(basename "$f")"; then
            echo "bench_e2e.sh: $tree output differs from $f" >&2
            identical=false
        fi
    done
done

awk -v out="$out" -v rows="$rows" -v count="$count" -v files="$files" \
    -v identical="$identical" -v baseline="${baseline:+yes}" \
    -v cpus="$(nproc)" -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" '
{
    key = $1 SUBSEP $2
    if (!(key in best) || $3 < best[key]) best[key] = $3
    cpu[$1, $2, $4] = $3
}
END {
    n = split(rows, r, " ")
    printf "{\n" > out
    printf "  \"benchmark\": \"figures-e2e\",\n" > out
    printf "  \"package\": \"femtocr/cmd/figures\",\n" > out
    printf "  \"scale\": \"cmd/figures defaults (-runs 10 -gops 20 -seed 1000)\",\n" > out
    printf "  \"workers\": 1,\n" > out
    printf "  \"count\": %d,\n", count > out
    printf "  \"statistic\": \"min user+sys CPU seconds per row\",\n" > out
    printf "  \"cpus\": %d,\n", cpus > out
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs > out
    printf "  \"results_identical\": %s,\n", identical > out
    printf "  \"results_files\": %d,\n", files > out
    printf "  \"rows\": [\n" > out
    for (i = 1; i <= n; i++) {
        a = best["after", r[i]]
        if (baseline == "yes") {
            b = best["before", r[i]]
            red = (b > 0) ? (b - a) / b : 0
            # Paired view: the after/before ratio of each repetition,
            # insertion-sorted for the median, and the repetitions won.
            m = 0
            wins = 0
            for (k = 1; k <= count; k++) {
                pb = cpu["before", r[i], k]
                pa = cpu["after", r[i], k]
                if (pa < pb) wins++
                x = (pb > 0) ? pa / pb : 1
                for (j = m; j > 0 && ratio[j] > x; j--) ratio[j + 1] = ratio[j]
                ratio[j + 1] = x
                m++
            }
            med = (m % 2) ? ratio[(m + 1) / 2] : (ratio[m / 2] + ratio[m / 2 + 1]) / 2
            printf "    {\"figure\": \"%s\", \"before_cpu_s\": %.3f, \"after_cpu_s\": %.3f, \"cpu_reduction\": %.3f, \"median_after_before_ratio\": %.3f, \"after_wins\": %d}%s\n", \
                r[i], b, a, red, med, wins, (i < n ? "," : "") > out
        } else {
            printf "    {\"figure\": \"%s\", \"cpu_s\": %.3f}%s\n", r[i], a, (i < n ? "," : "") > out
        }
    }
    printf "  ]\n" > out
    printf "}\n" > out
}
' "$samples"
echo "wrote $out"
if [ "$identical" != true ]; then
    exit 1
fi
