//! The CI perf-regression gate: compares a fresh bench report against a
//! committed baseline and lists every violated threshold.
//!
//! Thresholds are noise-tolerant by design — shared CI runners jitter
//! by a few percent run-to-run, so the gate only fails on drops big
//! enough to be a real regression:
//!
//! * **throughput** (`fleet_users_per_s` / `segments_per_s`): fail when
//!   the current run is more than 15% below baseline;
//! * **parallel efficiency**: fail on an absolute drop of more than
//!   0.1 (e.g. 0.80 → 0.69);
//! * **parity**: `parity_ok` must be true in the current run — a parity
//!   break is a correctness bug, never noise.
//!
//! Improvements never fail the gate; refresh the baseline with
//! `bench_gate --update-baseline` (see README §Observability).

use crate::json::Json;

/// Tolerances for one gate run. [`GateThresholds::default`] gives the
/// CI values (15% throughput, 0.1 efficiency).
#[derive(Debug, Clone, Copy)]
pub struct GateThresholds {
    /// Maximum tolerated relative throughput drop (0.15 = 15%).
    pub throughput_drop: f64,
    /// Maximum tolerated absolute efficiency drop.
    pub efficiency_drop: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        GateThresholds { throughput_drop: 0.15, efficiency_drop: 0.1 }
    }
}

enum Check {
    /// `current >= baseline * (1 - drop)` at a dotted path.
    MinRatio { path: &'static str, drop: f64 },
    /// `current >= baseline - drop` at a dotted path.
    MaxAbsDrop { path: &'static str, drop: f64 },
    /// The current report must have `true` at a dotted path.
    MustBeTrue { path: &'static str },
}

fn run_checks(label: &str, current: &Json, baseline: &Json, checks: &[Check]) -> Vec<String> {
    let mut violations = Vec::new();
    let num = |doc: &Json, path: &str| doc.path(path).and_then(Json::as_f64);
    for check in checks {
        match check {
            Check::MinRatio { path, drop } => {
                let (Some(cur), Some(base)) = (num(current, path), num(baseline, path)) else {
                    violations.push(format!("{label}: missing numeric field '{path}'"));
                    continue;
                };
                // A non-positive (or non-finite) baseline is a corrupt
                // baseline, never a pass: `base * (1 - drop)` would go
                // <= 0 so any current value clears the floor, and the
                // `cur / base` in the message would print NaN/inf.
                if !(base.is_finite() && base > 0.0) {
                    violations.push(format!(
                        "{label}: baseline {path} is {base} (not a positive finite number) — \
                         refresh it with --update-baseline"
                    ));
                    continue;
                }
                let floor = base * (1.0 - drop);
                if cur < floor {
                    violations.push(format!(
                        "{label}: {path} regressed {:.1}% ({cur:.4} < {floor:.4}; baseline {base:.4}, tolerance {:.0}%)",
                        (1.0 - cur / base) * 100.0,
                        drop * 100.0
                    ));
                }
            }
            Check::MaxAbsDrop { path, drop } => {
                let (Some(cur), Some(base)) = (num(current, path), num(baseline, path)) else {
                    violations.push(format!("{label}: missing numeric field '{path}'"));
                    continue;
                };
                // Same corruption guard: a NaN baseline makes every
                // `cur < floor` comparison false, silently passing.
                if !base.is_finite() {
                    violations.push(format!(
                        "{label}: baseline {path} is {base} (not finite) — \
                         refresh it with --update-baseline"
                    ));
                    continue;
                }
                let floor = base - drop;
                if cur < floor {
                    violations.push(format!(
                        "{label}: {path} dropped {:.3} ({cur:.4} < {floor:.4}; baseline {base:.4}, tolerance {drop:.2})",
                        base - cur
                    ));
                }
            }
            Check::MustBeTrue { path } => {
                if current.path(path).and_then(Json::as_bool) != Some(true) {
                    violations.push(format!("{label}: {path} is not true in the current run"));
                }
            }
        }
    }
    violations
}

/// Gates a `fleet_bench` report. Returns one message per violation;
/// empty means the gate passes.
pub fn check_fleet(current: &Json, baseline: &Json, t: &GateThresholds) -> Vec<String> {
    run_checks(
        "fleet",
        current,
        baseline,
        &[
            Check::MustBeTrue { path: "parity_ok" },
            Check::MinRatio { path: "scaling.fleet_users_per_s", drop: t.throughput_drop },
            Check::MaxAbsDrop { path: "scaling.efficiency", drop: t.efficiency_drop },
        ],
    )
}

/// Gates an `ingest_bench` report. Returns one message per violation;
/// empty means the gate passes.
pub fn check_ingest(current: &Json, baseline: &Json, t: &GateThresholds) -> Vec<String> {
    run_checks(
        "ingest",
        current,
        baseline,
        &[
            Check::MustBeTrue { path: "parity_ok" },
            Check::MinRatio { path: "scaling.segments_per_s", drop: t.throughput_drop },
            Check::MaxAbsDrop { path: "scaling.efficiency", drop: t.efficiency_drop },
        ],
    )
}

/// Gates a `tiled_bench` report. Returns one message per violation;
/// empty means the gate passes. `parity_ok` covers both the ingest
/// worker sweep and the tiled fleet runs; the gated throughputs are the
/// tile-rung encode rate and the rate-allocator rate.
pub fn check_tiled(current: &Json, baseline: &Json, t: &GateThresholds) -> Vec<String> {
    run_checks(
        "tiled",
        current,
        baseline,
        &[
            Check::MustBeTrue { path: "parity_ok" },
            Check::MinRatio { path: "scaling.tile_rungs_per_s", drop: t.throughput_drop },
            Check::MinRatio { path: "scaling.allocations_per_s", drop: t.throughput_drop },
        ],
    )
}

/// The tolerated relative drop in the store gate's reduction fractions.
/// Residency and wire bytes are deterministic byte accounting — not
/// timings — so the gate holds them far tighter than the throughputs.
const STORE_REDUCTION_DROP: f64 = 0.02;

/// Gates a `store_bench` report. Returns one message per violation;
/// empty means the gate passes. `parity_ok` covers bit-exact
/// reconstruction of every delta-resident entry, worker independence of
/// the ladder population, and the full-vs-delta wire content digests;
/// the gated fractions are the delta ladder's residency saving and the
/// per-user wire-byte saving (both deterministic, so the tolerance is
/// tight), plus the ISSUE's ≥30% residency-reduction floor.
pub fn check_store(current: &Json, baseline: &Json, _t: &GateThresholds) -> Vec<String> {
    run_checks(
        "store",
        current,
        baseline,
        &[
            Check::MustBeTrue { path: "parity_ok" },
            Check::MustBeTrue { path: "store.meets_reduction_floor" },
            Check::MinRatio { path: "store.resident_reduction", drop: STORE_REDUCTION_DROP },
            Check::MinRatio { path: "wire.wire_reduction", drop: STORE_REDUCTION_DROP },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_report(users_per_s: f64, efficiency: f64, parity_ok: bool) -> Json {
        Json::parse(&format!(
            "{{\"parity_ok\":{parity_ok},\"scaling\":{{\"fleet_users_per_s\":{users_per_s:.6},\"efficiency\":{efficiency:.6}}}}}"
        ))
        .unwrap()
    }

    fn ingest_report(segments_per_s: f64, efficiency: f64, parity_ok: bool) -> Json {
        Json::parse(&format!(
            "{{\"parity_ok\":{parity_ok},\"scaling\":{{\"segments_per_s\":{segments_per_s:.6},\"efficiency\":{efficiency:.6}}}}}"
        ))
        .unwrap()
    }

    fn tiled_report(tile_rungs_per_s: f64, allocations_per_s: f64, parity_ok: bool) -> Json {
        Json::parse(&format!(
            "{{\"parity_ok\":{parity_ok},\"scaling\":{{\"tile_rungs_per_s\":{tile_rungs_per_s:.6},\"allocations_per_s\":{allocations_per_s:.6}}}}}"
        ))
        .unwrap()
    }

    fn store_report(resident_reduction: f64, wire_reduction: f64, parity_ok: bool) -> Json {
        let meets = resident_reduction >= 0.30;
        Json::parse(&format!(
            "{{\"parity_ok\":{parity_ok},\"store\":{{\"parity_ok\":{parity_ok},\
             \"resident_reduction\":{resident_reduction:.6},\"meets_reduction_floor\":{meets}}},\
             \"wire\":{{\"parity_ok\":{parity_ok},\"wire_reduction\":{wire_reduction:.6}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn store_gate_pins_parity_floor_and_both_reductions() {
        let baseline = store_report(0.36, 0.09, true);
        assert!(check_store(&baseline, &baseline, &GateThresholds::default()).is_empty());

        let broken = store_report(0.36, 0.09, false);
        let violations = check_store(&broken, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("parity_ok"), "{violations:?}");

        // Below the 30% residency floor: both the floor flag and the
        // tight reduction ratio trip.
        let bloated = store_report(0.25, 0.09, true);
        let violations = check_store(&bloated, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("meets_reduction_floor")), "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("resident_reduction")), "{violations:?}");

        // A wire-byte regression past the 2% tolerance trips on its own.
        let chatty = store_report(0.36, 0.08, true);
        let violations = check_store(&chatty, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("wire_reduction"), "{violations:?}");

        // Deterministic numbers barely inside the tolerance still pass.
        let nudged = store_report(0.355, 0.0885, true);
        assert!(check_store(&nudged, &baseline, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn identical_runs_pass() {
        let base = fleet_report(120.0, 0.8, true);
        assert!(check_fleet(&base, &base, &GateThresholds::default()).is_empty());
        let base = ingest_report(40.0, 0.75, true);
        assert!(check_ingest(&base, &base, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn tiled_gate_covers_parity_and_both_throughputs() {
        let baseline = tiled_report(4000.0, 200_000.0, true);
        assert!(check_tiled(&baseline, &baseline, &GateThresholds::default()).is_empty());

        let broken = tiled_report(5000.0, 250_000.0, false);
        let violations = check_tiled(&broken, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("parity_ok"), "{violations:?}");

        let slow_ingest = tiled_report(3000.0, 200_000.0, true); // -25%
        let violations = check_tiled(&slow_ingest, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("tile_rungs_per_s"), "{violations:?}");

        let slow_alloc = tiled_report(4000.0, 150_000.0, true); // -25%
        let violations = check_tiled(&slow_alloc, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("allocations_per_s"), "{violations:?}");

        let noisy = tiled_report(3500.0, 175_000.0, true); // -12.5%: inside tolerance
        assert!(check_tiled(&noisy, &baseline, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn doctored_twenty_percent_throughput_drop_fails() {
        // The acceptance scenario: a doctored report 20% below baseline
        // must trip the 15% gate.
        let baseline = fleet_report(100.0, 0.8, true);
        let doctored = fleet_report(80.0, 0.8, true);
        let violations = check_fleet(&doctored, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("fleet_users_per_s"), "{violations:?}");

        let baseline = ingest_report(50.0, 0.7, true);
        let doctored = ingest_report(40.0, 0.7, true);
        let violations = check_ingest(&doctored, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("segments_per_s"), "{violations:?}");
    }

    #[test]
    fn noise_inside_tolerance_passes() {
        let baseline = fleet_report(100.0, 0.80, true);
        let noisy = fleet_report(86.0, 0.72, true); // -14% and -0.08: inside both
        assert!(check_fleet(&noisy, &baseline, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn efficiency_collapse_fails_even_with_throughput_intact() {
        let baseline = fleet_report(100.0, 0.85, true);
        let collapsed = fleet_report(99.0, 0.70, true);
        let violations = check_fleet(&collapsed, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("efficiency"), "{violations:?}");
    }

    #[test]
    fn parity_break_fails_regardless_of_speed() {
        let baseline = ingest_report(50.0, 0.7, true);
        let broken = ingest_report(60.0, 0.9, false);
        let violations = check_ingest(&broken, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("parity_ok"), "{violations:?}");
    }

    #[test]
    fn missing_fields_are_violations_not_passes() {
        let baseline = fleet_report(100.0, 0.8, true);
        let empty = Json::parse("{}").unwrap();
        let violations = check_fleet(&empty, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    #[test]
    fn corrupt_baselines_are_violations_not_passes() {
        // A zeroed/negative baseline used to make the MinRatio floor
        // <= 0, so any current run silently cleared it (with NaN/inf in
        // the would-be message). It must gate as a violation.
        let current = fleet_report(100.0, 0.8, true);
        for bad in [0.0, -5.0] {
            let baseline = fleet_report(bad, 0.8, true);
            let violations = check_fleet(&current, &baseline, &GateThresholds::default());
            assert_eq!(violations.len(), 1, "baseline {bad}: {violations:?}");
            assert!(violations[0].contains("fleet_users_per_s"), "{violations:?}");
            assert!(violations[0].contains("baseline"), "{violations:?}");
        }
        // NaN corrupts both check kinds (every comparison is false).
        let baseline = Json::parse(
            "{\"parity_ok\":true,\"scaling\":{\"fleet_users_per_s\":NaN,\"efficiency\":NaN}}",
        );
        if let Ok(baseline) = baseline {
            let violations = check_fleet(&current, &baseline, &GateThresholds::default());
            assert_eq!(violations.len(), 2, "{violations:?}");
        }
        let baseline = ingest_report(-1.0, 0.7, true);
        let current = ingest_report(50.0, 0.7, true);
        let violations = check_ingest(&current, &baseline, &GateThresholds::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn improvements_never_fail() {
        let baseline = fleet_report(100.0, 0.6, true);
        let faster = fleet_report(250.0, 0.95, true);
        assert!(check_fleet(&faster, &baseline, &GateThresholds::default()).is_empty());
    }
}
