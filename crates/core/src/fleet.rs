//! Deterministic parallel execution of per-user playback sessions.
//!
//! The paper's evaluation replays 59 users per video (§8.1) and the
//! ROADMAP's north star is a service "serving heavy traffic from
//! millions of users" — so sweeps must parallelise, but reproducibility
//! is non-negotiable: a sweep's numbers must not depend on how many
//! cores the machine happens to have. [`FleetRunner`] gives both: the
//! result is byte-identical to a serial loop for *any* worker count.
//!
//! Users are scheduled by the shared chunked self-scheduler in
//! [`evr_sched`] (the same one the SAS segment fan-out uses). The
//! determinism argument (spelled out in DESIGN.md §12):
//!
//! 1. user sessions are pure functions of `(user, config)` — they share
//!    only immutable state (`&EvrSystem`, `&PlaybackSession`);
//! 2. workers pull fixed-size contiguous user-index chunks from a
//!    shared atomic cursor — *which* worker runs which chunk is
//!    timing-dependent (that is what keeps lanes busy under uneven
//!    per-user cost), but chunk contents are fixed by index alone;
//! 3. every report is collected with its user id, sorted by user, and
//!    merged in ascending user order — so all order-sensitive f64
//!    accumulation happens on one thread in one fixed order.
//!
//! Only wall-clock and per-lane observability (the `evr_fleet_*`
//! metrics, the timeline's lane attribution) vary with the worker count
//! and scheduling; the reports never do.

use std::time::Instant;

use evr_client::session::PlaybackReport;
use evr_obs::{names, Observer};

/// Runs one independent playback session per user across a scoped
/// thread pool, returning reports in user order regardless of worker
/// count or scheduling.
///
/// ```
/// use evr_core::{EvrSystem, FleetRunner, UseCase, Variant};
/// use evr_sas::SasConfig;
/// use evr_video::library::VideoId;
///
/// let sys = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
/// let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
/// let serial = FleetRunner::new(1).run(3, |u| sys.run_with(&session, u));
/// let fleet = FleetRunner::new(8).run(3, |u| sys.run_with(&session, u));
/// assert_eq!(serial, fleet); // byte-identical, any worker count
/// ```
#[derive(Debug, Clone)]
pub struct FleetRunner {
    workers: usize,
    observer: Observer,
}

impl FleetRunner {
    /// A runner with `workers` threads and no instrumentation. `0`
    /// means *auto* — one worker per available core — and every count,
    /// auto included, is clamped to `1..=64`
    /// ([`evr_sched::resolve_workers`], the same contract as the SAS
    /// ingest fan-out).
    pub fn new(workers: usize) -> Self {
        FleetRunner {
            workers: evr_sched::resolve_workers(workers, u64::MAX),
            observer: Observer::noop(),
        }
    }

    /// Attaches an observer: each sweep adds the user count to
    /// `evr_fleet_users_total` and its wall-clock to
    /// `evr_fleet_wall_seconds`. The run's *results* are unaffected.
    pub fn with_observer(mut self, observer: &Observer) -> Self {
        self.observer = observer.clone();
        self
    }

    /// The configured worker count (auto requests already resolved).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Replays users `0..users` through `run`, in parallel, returning
    /// the reports in user order.
    ///
    /// On an observed runner each worker lane also reports its
    /// completed users (`evr_fleet_worker_users_total_<w>`) and busy
    /// seconds (`evr_fleet_worker_busy_seconds_<w>`) — the gap between
    /// a lane's busy time and the fleet wall time is scheduling idle,
    /// the first thing to look at when scaling is flat. Lane
    /// *attribution* is timing-dependent under self-scheduling, so
    /// these metrics (and the timeline's lane rows) are observability,
    /// never results. With a timeline attached, every user session is
    /// additionally recorded as a `user` interval on its worker's lane.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero, or if a worker panics.
    pub fn run<F>(&self, users: u64, run: F) -> Vec<PlaybackReport>
    where
        F: Fn(u64) -> PlaybackReport + Sync,
    {
        assert!(users > 0, "fleet needs at least one user");
        let tl = self.observer.timeline();
        let timed = tl.is_enabled();
        let t0 = Instant::now();
        let (reports, lanes) = evr_sched::run_chunked_observed(users, self.workers, 0, |user| {
            if timed {
                let ts = tl.now_ns();
                let report = run(user);
                let ctx = evr_obs::TraceCtx::for_user(user as i64);
                tl.record(names::TIMELINE_USER, ctx, ts, tl.now_ns());
                report
            } else {
                run(user)
            }
        });
        self.observer.counter(names::FLEET_USERS).add(users);
        self.observer.gauge(names::FLEET_WALL_SECONDS).add(t0.elapsed().as_secs_f64());
        if self.observer.is_enabled() {
            for lane in &lanes {
                self.observer.counter(&names::fleet_worker_users(lane.worker)).add(lane.items);
                self.observer
                    .gauge(&names::fleet_worker_busy_seconds(lane.worker))
                    .add(lane.busy_s);
            }
        }
        reports
    }

    /// Like [`FleetRunner::run`], but folds the per-user reports into
    /// one fleet-wide [`PlaybackReport`] via
    /// [`PlaybackReport::merge`], in ascending user order (so the merged
    /// ledger is byte-identical for any worker count too).
    pub fn run_merged<F>(&self, users: u64, run: F) -> PlaybackReport
    where
        F: Fn(u64) -> PlaybackReport + Sync,
    {
        let mut merged = PlaybackReport::empty();
        for r in self.run(users, run) {
            merged.merge(&r);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{EvrSystem, UseCase, Variant};
    use evr_sas::SasConfig;
    use evr_video::library::VideoId;

    fn tiny() -> EvrSystem {
        EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0)
    }

    #[test]
    fn reports_are_in_user_order_for_any_worker_count() {
        let sys = tiny();
        let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
        let serial = FleetRunner::new(1).run(5, |u| sys.run_with(&session, u));
        for workers in [2, 3, 8, 64] {
            let fleet = FleetRunner::new(workers).run(5, |u| sys.run_with(&session, u));
            assert_eq!(serial, fleet, "{workers} workers");
        }
        // Order check against direct serial calls.
        for (u, r) in serial.iter().enumerate() {
            assert_eq!(*r, sys.run_with(&session, u as u64), "user {u}");
        }
    }

    #[test]
    fn merged_report_is_worker_count_invariant() {
        let sys = tiny();
        let session = sys.session_for(UseCase::OnlineStreaming, Variant::S);
        let serial = FleetRunner::new(1).run_merged(4, |u| sys.run_with(&session, u));
        let fleet = FleetRunner::new(8).run_merged(4, |u| sys.run_with(&session, u));
        assert_eq!(serial, fleet);
        assert_eq!(serial.frames_total, 4 * sys.run_with(&session, 0).frames_total);
    }

    #[test]
    fn chunked_schedule_matches_the_old_static_interleave_bytes() {
        // The scheduling policy must be invisible in the output: the
        // chunked runner's per-user and merged reports are pinned
        // byte-identical to a hand-rolled `w, w+n, w+2n, …` static
        // interleave (the pre-chunking policy).
        let sys = tiny();
        let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
        let users = 7u64;
        let workers = 3u64;
        let mut interleaved: Vec<(u64, PlaybackReport)> = Vec::new();
        for w in 0..workers {
            let mut u = w;
            while u < users {
                interleaved.push((u, sys.run_with(&session, u)));
                u += workers;
            }
        }
        interleaved.sort_by_key(|(u, _)| *u);
        let interleaved: Vec<PlaybackReport> = interleaved.into_iter().map(|(_, r)| r).collect();
        let chunked = FleetRunner::new(workers as usize).run(users, |u| sys.run_with(&session, u));
        assert_eq!(interleaved, chunked);
        let mut merged_interleave = PlaybackReport::empty();
        for r in &interleaved {
            merged_interleave.merge(r);
        }
        let merged_chunked =
            FleetRunner::new(workers as usize).run_merged(users, |u| sys.run_with(&session, u));
        assert_eq!(merged_interleave, merged_chunked);
    }

    #[test]
    fn fleet_metrics_accumulate() {
        let obs = Observer::enabled();
        let sys = tiny();
        let session = sys.session_for(UseCase::OnlineStreaming, Variant::H);
        let runner = FleetRunner::new(2).with_observer(&obs);
        let _ = runner.run(3, |u| sys.run_with(&session, u));
        let _ = runner.run(2, |u| sys.run_with(&session, u));
        assert_eq!(obs.counter(names::FLEET_USERS).get(), 5);
        assert!(obs.gauge(names::FLEET_WALL_SECONDS).get() > 0.0);
    }

    #[test]
    fn shared_observer_counters_are_the_merged_report_for_any_worker_count() {
        // One observer per sweep, shared by the runner and the session:
        // each run mirrors its report's totals once, so the counters do
        // not depend on which lane ran which user.
        let sys = tiny();
        let users = 6;
        let sweep = |workers| {
            let obs = Observer::enabled();
            let mut session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
            session.set_observer(obs.clone());
            let runner = FleetRunner::new(workers).with_observer(&obs);
            let merged = runner.run_merged(users, |u| sys.run_with(&session, u));
            let mut counters: Vec<(String, u64)> = obs
                .metrics()
                .into_iter()
                .filter(|(n, _)| !n.starts_with(names::FLEET_WORKER_USERS_PREFIX))
                .filter_map(|(n, v)| match v {
                    evr_obs::MetricSnapshot::Counter(c) => Some((n, c)),
                    _ => None,
                })
                .collect();
            counters.sort();
            (obs, merged, counters)
        };
        let (obs, merged, serial) = sweep(1);
        let (_, fleet_merged, fleet) = sweep(8);
        assert_eq!(merged, fleet_merged);
        assert_eq!(serial, fleet);

        let c = |name| obs.counter(name).get();
        assert!(merged.fov_hits > 0 && merged.fallback_frames > 0);
        assert_eq!(c(names::FLEET_USERS), users);
        assert_eq!(c(names::SEGMENTS), users * sys.server().catalog().segment_count() as u64);
        assert_eq!(c(names::FRAMES), merged.frames_total);
        assert_eq!(c(names::FOV_HITS), merged.fov_hits);
        assert_eq!(c(names::FOV_MISSES), merged.fov_misses);
        assert_eq!(c(names::FALLBACK_FRAMES), merged.fallback_frames);
        assert_eq!(c(names::REBUFFER_EVENTS), merged.rebuffer_events);
        assert_eq!(c(names::FETCH_BYTES), merged.bytes_received);
        // S+H projects its fallback frames on the PTE.
        assert_eq!(c(names::PT_PTE_FRAMES), merged.fallback_frames);
        assert_eq!(c(names::PTE_FRAMES), merged.fallback_frames);
        assert_eq!(c(names::PT_GPU_FRAMES), 0);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let _ = FleetRunner::new(2).run(0, |_| PlaybackReport::empty());
    }

    #[test]
    fn worker_count_is_clamped_and_zero_means_auto() {
        // `0` = auto: one per core, same 1..=64 clamp as the SAS
        // fan-out's `resolve_workers` (it used to clamp to 1 here while
        // sas treated 0 as one-per-core — the contracts are unified).
        let auto = FleetRunner::new(0).workers();
        assert!((1..=64).contains(&auto), "auto resolved to {auto}");
        assert_eq!(FleetRunner::new(1000).workers(), 64);
        assert_eq!(FleetRunner::new(1).workers(), 1);
    }
}
