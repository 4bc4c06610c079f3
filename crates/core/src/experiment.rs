//! Multi-user experiment running and aggregation.
//!
//! The paper replays 59 users per video (§8.1); user sessions are
//! independent, so the runner replays them on a thread pool and averages
//! the resulting ledgers and statistics.

use std::path::{Path, PathBuf};

use evr_client::session::PlaybackReport;
use evr_energy::EnergyLedger;

use crate::fleet::FleetRunner;
use crate::system::{EvrSystem, UseCase, Variant};

/// How an experiment sweeps users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of study users to replay (paper: 59).
    pub users: u64,
    /// Threads for the user sweep; `0` means one per core (see
    /// [`evr_sched::resolve_workers`]).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { users: evr_trace::dataset::USER_COUNT as u64, threads: 8 }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for unit tests.
    pub fn quick(users: u64) -> Self {
        ExperimentConfig { users, threads: 4 }
    }
}

/// Averaged results across users.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReport {
    /// Mean energy ledger (per-user average).
    pub ledger: EnergyLedger,
    /// Mean per-check FOV-miss rate.
    pub miss_rate: f64,
    /// Mean fraction of frames served from the original stream (the
    /// paper's reported FOV-miss rate).
    pub fov_miss_fraction: f64,
    /// Mean FPS-drop fraction.
    pub fps_drop: f64,
    /// Mean bytes received per user.
    pub bytes_received: f64,
    /// Mean rebuffer time per user, seconds.
    pub rebuffer_time_s: f64,
    /// Mean fault-induced stall time per user, seconds (zero for clean
    /// runs).
    pub fault_stall_s: f64,
    /// Mean fraction of frames served degraded or frozen.
    pub degraded_fraction: f64,
    /// Mean fraction of frames frozen on the last good picture.
    pub frozen_fraction: f64,
    /// Mean request retries per user.
    pub retries: f64,
    /// Mean request timeouts per user.
    pub timeouts: f64,
    /// Mean segments shed by the serving front per user.
    pub shed_segments: f64,
    /// Mean segments refused by the front (outage / open breaker) per
    /// user.
    pub front_unavailable_segments: f64,
    /// Users aggregated.
    pub users: u64,
}

impl AggregateReport {
    fn from_reports(reports: Vec<PlaybackReport>) -> AggregateReport {
        assert!(!reports.is_empty(), "aggregate requires at least one report");
        let n = reports.len() as f64;
        let mut ledger = EnergyLedger::new();
        let mut duration = 0.0;
        let mut miss_rate = 0.0;
        let mut fov_miss_fraction = 0.0;
        let mut fps_drop = 0.0;
        let mut bytes = 0.0;
        let mut rebuffer = 0.0;
        let mut fault_stall = 0.0;
        let mut degraded = 0.0;
        let mut frozen = 0.0;
        let mut retries = 0.0;
        let mut timeouts = 0.0;
        let mut shed = 0.0;
        let mut front_unavailable = 0.0;
        for r in &reports {
            ledger.merge(&r.ledger);
            duration += r.duration_s;
            miss_rate += r.miss_rate();
            fov_miss_fraction += r.fov_miss_fraction();
            fps_drop += r.fps_drop_fraction();
            bytes += r.bytes_received as f64;
            rebuffer += r.rebuffer_time_s;
            fault_stall += r.faults.stall_time_s;
            degraded += r.degraded_fraction();
            frozen += r.frozen_fraction();
            retries += r.faults.retries as f64;
            timeouts += r.faults.timeouts as f64;
            shed += r.faults.shed_segments as f64;
            front_unavailable += r.faults.front_unavailable_segments as f64;
        }
        // Scale the merged ledger down to a per-user mean.
        let mut mean = EnergyLedger::new();
        for c in evr_energy::Component::ALL {
            for a in evr_energy::Activity::ALL {
                let j = ledger.get(c, a) / n;
                if j > 0.0 {
                    mean.add(c, a, j);
                }
            }
        }
        mean.set_duration(duration / n);
        AggregateReport {
            ledger: mean,
            miss_rate: miss_rate / n,
            fov_miss_fraction: fov_miss_fraction / n,
            fps_drop: fps_drop / n,
            bytes_received: bytes / n,
            rebuffer_time_s: rebuffer / n,
            fault_stall_s: fault_stall / n,
            degraded_fraction: degraded / n,
            frozen_fraction: frozen / n,
            retries: retries / n,
            timeouts: timeouts / n,
            shed_segments: shed / n,
            front_unavailable_segments: front_unavailable / n,
            users: reports.len() as u64,
        }
    }
}

/// Runs `variant` for all users in `use_case`, in parallel, and averages.
pub fn run_variant(
    system: &EvrSystem,
    use_case: UseCase,
    variant: Variant,
    cfg: &ExperimentConfig,
) -> AggregateReport {
    let session = system.session_for(use_case, variant);
    let reports = fleet_for(system, cfg).run(cfg.users, |user| system.run_with(&session, user));
    AggregateReport::from_reports(reports)
}

/// Runs `variant` for all users with `setup`'s faults injected, in
/// parallel, and averages. Each user's fault stream is independently
/// seeded (see [`EvrSystem::run_user_resilient`]), so the sweep stays
/// deterministic under any thread count.
pub fn run_variant_resilient(
    system: &EvrSystem,
    use_case: UseCase,
    variant: Variant,
    cfg: &ExperimentConfig,
    setup: &evr_faults::FaultSetup,
) -> AggregateReport {
    let session = system.session_for(use_case, variant);
    let reports = fleet_for(system, cfg)
        .run(cfg.users, |user| system.run_with_resilient(&session, user, setup));
    AggregateReport::from_reports(reports)
}

/// The fleet runner for one experiment sweep, instrumented with the
/// system's observer so the `evr_fleet_*` metrics accumulate.
fn fleet_for(system: &EvrSystem, cfg: &ExperimentConfig) -> FleetRunner {
    FleetRunner::new(cfg.threads).with_observer(system.observer())
}

/// Per-stage exemplars kept in the run report's slowest-N table.
pub const REPORT_EXEMPLARS: usize = 5;

/// Writes the per-run observability artifact for an instrumented run:
/// `<label>.report.json` (machine-readable counters/gauges/histograms/
/// trace totals) and `<label>.summary.txt` (the human-readable table),
/// both under `dir` (created if missing). Returns the two paths.
///
/// When the observer carries an enabled timeline, the summary gains a
/// slowest-[`REPORT_EXEMPLARS`] exemplar table (per-stage worst
/// offenders with the user/segment/request they ran for) and the full
/// per-worker timeline is written as `<label>.trace_events.json` in
/// Chrome Trace Event Format (open in `chrome://tracing` or Perfetto).
///
/// The label is sanitised to `[A-Za-z0-9._-]` so variant names like
/// `S+H` produce portable file stems.
pub fn write_run_report(
    observer: &evr_obs::Observer,
    label: &str,
    dir: impl AsRef<Path>,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let stem: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    let stem = if stem.is_empty() { "run".to_string() } else { stem };
    let report_path = dir.join(format!("{stem}.report.json"));
    let summary_path = dir.join(format!("{stem}.summary.txt"));
    std::fs::write(&report_path, observer.report_json(label))?;
    let mut summary = observer.summary();
    let timeline = observer.timeline();
    if timeline.is_enabled() {
        let table = timeline.exemplar_table(REPORT_EXEMPLARS);
        if !table.is_empty() {
            summary.push_str("\nslowest intervals per stage (timeline):\n");
            summary.push_str(&table);
        }
        timeline.write_chrome_trace(dir.join(format!("{stem}.trace_events.json")))?;
    }
    std::fs::write(&summary_path, summary)?;
    Ok((report_path, summary_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_sas::SasConfig;
    use evr_video::library::VideoId;

    #[test]
    fn parallel_run_is_deterministic() {
        let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
        let cfg = ExperimentConfig::quick(4);
        let a = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
        let b = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.users, 4);
    }

    #[test]
    fn aggregate_preserves_energy_scale() {
        let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
        let cfg = ExperimentConfig::quick(2);
        let agg = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
        let single = system.run_user(Variant::Baseline, 0);
        // The mean ledger is the same order of magnitude as one user's.
        let ratio = agg.ledger.total() / single.ledger.total();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
        // Average device power is in the watts range the paper measures.
        assert!((2.0..8.0).contains(&agg.ledger.total_power()), "{}", agg.ledger.total_power());
    }

    #[test]
    fn aggregate_keeps_every_activity() {
        use evr_energy::{Activity, Component};
        let mut report = PlaybackReport { duration_s: 1.0, ..PlaybackReport::empty() };
        for c in Component::ALL {
            for a in Activity::ALL {
                report.ledger.add(c, a, 1.0);
            }
        }
        let agg = AggregateReport::from_reports(vec![report.clone(), report]);
        for c in Component::ALL {
            for a in Activity::ALL {
                assert_eq!(agg.ledger.get(c, a), 1.0, "the mean ledger dropped {c}/{a}");
            }
        }
    }

    #[test]
    fn run_report_artifacts_are_written_and_well_formed() {
        let obs = evr_obs::Observer::enabled();
        let mut system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
        system.instrument(&obs);
        let _ = run_variant(
            &system,
            UseCase::OnlineStreaming,
            Variant::SPlusH,
            &ExperimentConfig::quick(2),
        );
        let dir = std::env::temp_dir().join("evr-core-report-test");
        let (report, summary) = write_run_report(&obs, "S+H quick", &dir).expect("write artifacts");
        assert_eq!(report.file_name().unwrap(), "S_H_quick.report.json");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.starts_with('{') && json.ends_with("}\n"), "single JSON object");
        assert!(json.contains("\"evr_frames_total\""));
        let table = std::fs::read_to_string(&summary).unwrap();
        assert!(table.contains("evr_frames_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_sweep_is_deterministic_and_clean_matches_plain() {
        let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
        let cfg = ExperimentConfig::quick(3);
        let clean = evr_faults::FaultSetup::none();
        let plain = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
        let resilient =
            run_variant_resilient(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg, &clean);
        assert_eq!(plain, resilient);

        let faulty = evr_faults::FaultSetup::seeded(11)
            .with_link(evr_faults::LinkProcess::clean(0.0, 0.002));
        let a = run_variant_resilient(
            &system,
            UseCase::OnlineStreaming,
            Variant::SPlusH,
            &cfg,
            &faulty,
        );
        let b = run_variant_resilient(
            &system,
            UseCase::OnlineStreaming,
            Variant::SPlusH,
            &cfg,
            &faulty,
        );
        assert_eq!(a, b);
        assert!(a.frozen_fraction > 0.9, "dead link should freeze: {}", a.frozen_fraction);
        assert!(a.fault_stall_s > 0.0);
        assert!(a.timeouts > 0.0);
        assert!(
            a.ledger.get(evr_energy::Component::Network, evr_energy::Activity::Resilience) > 0.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
        let _ = run_variant(
            &system,
            UseCase::OnlineStreaming,
            Variant::H,
            &ExperimentConfig { users: 0, threads: 1 },
        );
    }
}
