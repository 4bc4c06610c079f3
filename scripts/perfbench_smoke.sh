#!/usr/bin/env bash
# Output smoke of the wall-clock benchmark (perfbench/): runs every
# workload briefly and checks its output digest against
# tests/golden/perfbench_digest.txt.
#
#   scripts/perfbench_smoke.sh
#
# Each workload runs with `--seed 1 --seconds 2 --trace 0` on CPUs 0 and
# 1. The pin matters: `serve` runs one open-loop lane per core, and its
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
    echo "+ taskset -c 0,1 evr-perfbench --workload $workload --seed 1 --seconds 2 --trace 0" >&2
    if ! out=$(taskset -c 0,1 cargo run --release --offline --quiet --manifest-path "$MANIFEST" -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0); then
        echo "$out"
        echo "FAIL $workload: perfbench exited non-zero" >&2
        status=1
        continue
    fi
    echo "$out"
    got=$(echo "$out" | sed -n 's/^output digest = //p')
    if [ "$got" = "$want" ]; then
        echo "ok   $workload digest $got"
    else
        echo "FAIL $workload: output digest '${got:-<none>}', golden $want" >&2
        status=1
    fi
done < "$GOLDEN"
exit $status
