#!/usr/bin/env bash
# Tier-1 verification gate for femtocr. CI runs this on every push/PR; run
# it locally before merging. Steps:
#
#   1. gofmt -s     — formatting (and simplification) drift fails the gate
#   2. go vet       — the compiler-adjacent standard checks
#   3. go build     — the whole module must compile
#   4. femtovet     — the analyzers no runtime test can replace (RNG
#                     funnel, map-order leaks, float equality, dropped
#                     errors, buffer ownership, directive hygiene); any
#                     finding fails the gate
#   5. go test      — core and sim without the race detector: the
#                     AllocsPerRun pins skip under -race, and the full-scale
#                     solver oracles shrink there, so this is the only step
#                     that runs them
#   6. results/     — every figure regenerated at the default scale
#                     (figures -fig everything, then -fig topology) into a
#                     temp dir must match the checked-in results/ byte for
#                     byte, file for file: a change that means to move a
#                     result commits the new files and explains the diff in
#                     EXPERIMENTS.md
#   7. perfbench    — the benchmark module's own tests (traced replay
#                     against the engine, bit for bit, and its references
#                     against results/); `go test ./...` from the root
#                     skips the nested module
#   8. determinism  — the parallel-replication regression: figures must be
#                     byte-identical for workers=1, 4, and GOMAXPROCS, run
#                     under the race detector (named explicitly so a test
#                     rename can't silently drop the gate)
#   9. go test -race — all tests under the race detector
#  10. metro smoke   — a quick-scale generated metro through the sharded
#                     engine end to end (femtosim -scenario metro)
#
# Both -race steps run with GOMAXPROCS=4: CI containers expose only one or
# two CPUs (the BENCH_*.json files record `cpus`), and with GOMAXPROCS that
# low goroutines barely interleave, so the race detector would exercise few
# of the schedules it exists to catch. The override is echoed into the CI
# log so a run's effective parallelism is auditable.
#
# Opt-in extras:
#   FEMTOCR_FUZZ=1  — also run short fuzz smoke passes (-fuzztime=10s) over
#                     the core solver fuzz targets (water-filling, greedy
#                     channels against the literal Table III runs and
#                     against their own SkipBound runs, warm==cold
#                     solver sessions, the equilibrium memo against a
#                     memo-free workspace, the equilibrium solve against
#                     its shortcut-free reference, the association
#                     polish's duality certificate against re-filled flips,
#                     and the inner bisection's early exit against the
#                     full-depth bisection), over generated topologies
#                     through NewNetwork, Partition and Subnetwork (every
#                     user in exactly one shard), over generated extreme
#                     configs through NewNetwork, Run and RunSharded (an
#                     error or finite results, and RunSharded accepts
#                     whatever Run accepts), and over random slots of the
#                     bound trajectory's gain inflation against its literal
#                     bisection.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting (gofmt -s -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> femtovet"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/femtovet" ./cmd/femtovet
"$tmp/femtovet" ./...

echo "==> go test (allocation pins and full-scale oracles, no race detector)"
go test -count=1 ./internal/core ./internal/sim

echo "==> results/ (regenerated at the default scale, byte-identical)"
go build -o "$tmp/figures" ./cmd/figures
"$tmp/figures" -fig everything -out "$tmp/results" >/dev/null
"$tmp/figures" -fig topology -out "$tmp/results" >/dev/null
if ! diff <(ls results) <(ls "$tmp/results"); then
    echo "results/: the regenerated file set differs from the checked-in one" >&2
    exit 1
fi
for f in results/*; do
    if ! cmp "$f" "$tmp/results/$(basename "$f")"; then
        echo "results/: $f differs from its regeneration (commit the new file and explain the diff in EXPERIMENTS.md)" >&2
        exit 1
    fi
done

echo "==> perfbench tests (nested module)"
go -C perfbench test -count=1 ./...

echo "==> parallel determinism (workers=1/4/GOMAXPROCS, byte-identical figures)"
echo "    GOMAXPROCS=4 (forced: 1-2 CPU runners barely interleave goroutines)"
GOMAXPROCS=4 go test -race -run '^(TestParallelDeterminism|TestTopologyStudyDeterminism)$' \
    -count=1 ./internal/experiments

echo "==> go test -race"
echo "    GOMAXPROCS=4 (forced: 1-2 CPU runners barely interleave goroutines)"
GOMAXPROCS=4 go test -race ./...

echo "==> metro smoke (sharded engine end to end through femtosim)"
go run ./cmd/femtosim -scenario metro -metro-fbs 24 -metro-users 2 \
    -gops 1 -workers 4 >/dev/null

if [ -n "${FEMTOCR_FUZZ:-}" ]; then
    echo "==> fuzz smoke (FEMTOCR_FUZZ set)"
    go test -run='^$' -fuzz='^FuzzWaterfill$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzGreedyChannels$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzSolverSession$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzEquilibriumMemo$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzEquilibriumSolve$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzPolishCertificate$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzInnerExit$' -fuzztime=10s ./internal/core
    go test -run='^$' -fuzz='^FuzzPartition$' -fuzztime=10s ./internal/netmodel
    go test -run='^$' -fuzz='^FuzzExtremeConfigs$' -fuzztime=10s ./internal/sim
    go test -run='^$' -fuzz='^FuzzGainInflation$' -fuzztime=10s ./internal/sim
fi

echo "check.sh: all gates passed"
