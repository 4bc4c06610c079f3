#!/usr/bin/env bash
# Output smoke of the wall-clock benchmark (perfbench/): runs every
# workload briefly, untraced and traced, and checks each run's output
# digest against tests/golden/perfbench_digest.txt.
#
#   scripts/perfbench_smoke.sh
#
# Each workload runs with `--seed 1 --seconds 2` at `--trace 0` and at
# `--trace 1` on CPUs 0 and 1. The traced run is the one path that reads
# the observability layer (evr-obs); tracing must not change a digest,
# so both runs are checked against the same golden. The pin matters: `serve` runs one open-loop lane per core, and its
# digest covers every open-loop request, so it depends on the core
# count. The digests are pure functions of the outputs, so they
# reproduce on any host with two usable CPUs; the timings printed
# beside them are informational. Fails on a non-zero exit of a run, on
# a missing digest line, or on a digest that differs from the golden.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/perfbench_digest.txt
MANIFEST=perfbench/Cargo.toml

echo "+ cargo build --release --offline --quiet --manifest-path $MANIFEST" >&2
cargo build --release --offline --quiet --manifest-path "$MANIFEST"

status=0
while read -r workload want; do
    [ -n "$workload" ] || continue
    for trace in 0 1; do
        run="$workload --trace $trace"
        echo "+ taskset -c 0,1 evr-perfbench --workload $workload --seed 1 --seconds 2 --trace $trace" >&2
        if ! out=$(taskset -c 0,1 cargo run --release --offline --quiet --manifest-path "$MANIFEST" -- \
            --workload "$workload" --seed 1 --seconds 2 --trace "$trace"); then
            echo "$out"
            echo "FAIL $run: perfbench exited non-zero" >&2
            status=1
            continue
        fi
        echo "$out"
        got=$(echo "$out" | sed -n 's/^output digest = //p')
        if [ "$got" = "$want" ]; then
            echo "ok   $run digest $got"
        else
            echo "FAIL $run: output digest '${got:-<none>}', golden $want" >&2
            status=1
        fi
    done
done < "$GOLDEN"
exit $status
