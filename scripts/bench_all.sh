#!/usr/bin/env bash
# Runs every performance bench with pinned seeds and collects the JSON
# reports (plus the Chrome trace artifacts) under target/bench/.
#
#   scripts/bench_all.sh            # smoke scale — what CI runs
#   scripts/bench_all.sh --update-baseline
#                                   # smoke scale, then adopt the fleet,
#                                   # ingest and tiled reports as the new
#                                   # committed benches/baselines/
#
# The workloads are fully deterministic (pinned seeds, fixed content,
# chunked self-scheduling with ascending-index merge), so parity flags
# and counts in the reports reproduce bit-for-bit anywhere; only the
# wall-clock fields vary with the machine. The gated fleet/ingest
# scaling numbers come from the chunked-schedule model over per-item
# costs measured on this host (see crates/bench/src/scaling.rs). Only
# the efficiency is host-independent, up to per-item cost noise: the
# throughput divides users or segments by that modeled makespan, so it
# moves with the host's per-item speed. `bench_gate` compares with
# noise-tolerant thresholds — see README §Observability.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/bench
BASELINES=benches/baselines
UPDATE=""
for arg in "$@"; do
    case "$arg" in
        --update-baseline) UPDATE="--update-baseline" ;;
        *) echo "unknown argument: $arg (expected --update-baseline)" >&2; exit 2 ;;
    esac
done
mkdir -p "$OUT"

run() { echo "+ $*" >&2; "$@"; }

run cargo build --release -q -p evr-bench \
    --bin pt_bench --bin fleet_bench --bin ingest_bench --bin tiled_bench \
    --bin chaos_run --bin bench_gate

# Pinned-seed smokes: parity is load-bearing, timings informational.
run target/release/pt_bench --smoke seed=7 json="$OUT/BENCH_pt.json"
run target/release/chaos_run quick tiny seed=7 json=target/chaos_smoke.json
run diff -u tests/golden/chaos_smoke.json target/chaos_smoke.json

# The gated benches: scaling sweep + Amdahl summary + Chrome trace for
# fleet/ingest, then the tiled bench.
# Worker counts are pinned (not auto-detected) so the swept
# configurations — and thus the gate's efficiency comparison — are the
# same on every machine.
run target/release/fleet_bench --smoke workers=8 json="$OUT/BENCH_fleet.json"
run target/release/ingest_bench --smoke workers=8 json="$OUT/BENCH_ingest.json"
run target/release/tiled_bench --smoke workers=8 json="$OUT/BENCH_tiled.json"

run target/release/bench_gate \
    fleet="$OUT/BENCH_fleet.json" ingest="$OUT/BENCH_ingest.json" \
    tiled="$OUT/BENCH_tiled.json" \
    baselines="$BASELINES" $UPDATE

echo "bench reports in $OUT/ (traces: *.trace_events.json)"
