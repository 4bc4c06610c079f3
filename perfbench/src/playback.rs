//! `playback`: a closed loop of `cores` `FleetRunner` callers replaying
//! headset sessions over a pre-built `EvrSystem` on RS. User `u` plays
//! variant `u mod 6` of {Baseline, S, H, S+H, T, T+H} through
//! `run_with`; the ingest, the tiled-rate catalog and all six
//! `session_for` builds happen in set-up, so the timed loop only reads
//! the store.
//!
//! The seed picks the block of user ids, and with it every head trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use evr_client::allocate_tile_rungs;
use evr_client::session::{PlaybackReport, PlaybackSession};
use evr_core::{EvrSystem, FleetRunner, UseCase, Variant};
use evr_obs::{names, MetricSnapshot, Observer};
use evr_projection::lut::SamplingMapCache;
use evr_sas::{FovPrerenderStore, SasConfig, PERIPHERY_MARGIN};
use evr_video::library::VideoId;

use crate::probe::{thread_cpu_ns, with_probe, StealClock};
use crate::stats::{median, median_of_windows, Dist};
use crate::{timed_setup, Outcome, Run};

const VIDEO: VideoId = VideoId::Rs;
/// Content per session, seconds.
const CONTENT_S: f64 = 2.0;
/// Users per `FleetRunner::run` call.
const BATCH: u64 = 240;
/// Batches per latency window.
const WINDOW_BATCHES: usize = 30;
/// Leading users whose fleet reports are re-run serially as the check.
const CHECK_USERS: u64 = 24;

const VARIANTS: [(Variant, &str); 6] = [
    (Variant::Baseline, "baseline"),
    (Variant::S, "s"),
    (Variant::H, "h"),
    (Variant::SPlusH, "s_h"),
    (Variant::T, "t"),
    (Variant::TPlusH, "t_h"),
];

struct Setup {
    sys: EvrSystem,
    sessions: Vec<PlaybackSession>,
    ingest_s: f64,
    tiled_s: f64,
    build_ms: Vec<f64>,
}

/// Builds the system cold: the process-wide pre-render store is emptied
/// first so every set-up renders its FOV videos again.
fn setup() -> Setup {
    FovPrerenderStore::shared().clear();
    let t = Instant::now();
    let sys = EvrSystem::build(VIDEO, SasConfig::default(), CONTENT_S);
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sys.tiled_rates();
    let tiled_s = t.elapsed().as_secs_f64();
    let (sessions, build_ms) = build_sessions(&sys);
    Setup { sys, sessions, ingest_s, tiled_s, build_ms }
}

fn build_sessions(sys: &EvrSystem) -> (Vec<PlaybackSession>, Vec<f64>) {
    VARIANTS
        .iter()
        .map(|&(v, _)| {
            let t = Instant::now();
            let session = sys.session_for(UseCase::OnlineStreaming, v);
            (session, t.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// The sessions of `users` consecutive users from `first`, on `fleet`;
/// returns their reports and per-session times (ms) on the caller's
/// CPU clock — a session runs on one thread and never blocks, so that
/// is its wall time on a CPU of its own.
fn play(
    sys: &EvrSystem,
    sessions: &[PlaybackSession],
    fleet: &FleetRunner,
    first: u64,
    users: u64,
) -> (Vec<PlaybackReport>, Vec<f64>) {
    let took: Vec<AtomicU64> = (0..users).map(|_| AtomicU64::new(0)).collect();
    let reports = fleet.run(users, |k| {
        let user = first + k;
        let t = thread_cpu_ns();
        let report = sys.run_with(&sessions[(user % 6) as usize], user);
        took[k as usize].store(thread_cpu_ns() - t, Ordering::Relaxed);
        report
    });
    (reports, took.iter().map(|w| w.load(Ordering::Relaxed) as f64 / 1e6).collect())
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = timed_setup(setup);
    out.metrics.set("setup_s", setup_s);
    let first_user = (run.seed % 1_000_000) * 1_000_000;

    // Traced runs instrument the system and rebuild the sessions, which
    // capture the observer; the plain ones stay for the overhead A/B.
    let observer = Observer::enabled();
    let plain = if run.traced {
        s.sys.instrument(&observer);
        let (traced, _) = build_sessions(&s.sys);
        Some(std::mem::replace(&mut s.sessions, traced))
    } else {
        None
    };
    let fleet = if run.traced {
        FleetRunner::new(run.cores).with_observer(&observer)
    } else {
        FleetRunner::new(run.cores)
    };
    let store = FovPrerenderStore::shared();
    let (store_before, entries_before) = (store.stats(), store.len());
    let lut_before = SamplingMapCache::shared().stats();
    let ((elapsed_s, session_ms, kept, hits, lookups), proc) =
        with_probe(run.traced, run.cores, || {
            let start = StealClock::start();
            let mut session_ms = Vec::new();
            let mut kept = Vec::new();
            let (mut hits, mut lookups) = (0u64, 0u64);
            while session_ms.is_empty() || start.wall_s() < run.seconds {
                let first = first_user + session_ms.len() as u64;
                let (reports, w) = play(&s.sys, &s.sessions, &fleet, first, BATCH);
                if kept.is_empty() {
                    kept = reports[..CHECK_USERS as usize].to_vec();
                }
                for r in &reports {
                    hits += r.fov_hits;
                    lookups += r.fov_hits + r.fov_misses;
                }
                session_ms.extend(w);
            }
            (start.effective_s(), session_ms, kept, hits, lookups)
        });
    let store_after = store.stats();
    let lut_after = SamplingMapCache::shared().stats();
    let users = session_ms.len();
    // Session times are summarised per window of `WINDOW_BATCHES`
    // batches and the median window reported.
    let mut windows: Vec<Vec<f64>> =
        session_ms.chunks(WINDOW_BATCHES * BATCH as usize).map(<[f64]>::to_vec).collect();
    if windows.len() > 1 && windows.last().map_or(0, Vec::len) < WINDOW_BATCHES * BATCH as usize {
        windows.pop();
    }
    let latency = median_of_windows(&windows, 0.99);
    println!(
        "playback: {users} sessions of {CONTENT_S} s of {VIDEO:?} on {} callers in {elapsed_s:.3} s \
         (steal discounted); session time {}",
        fleet.workers(),
        latency.describe("ms")
    );
    out.metrics.set("throughput_per_s", users as f64 / elapsed_s);
    out.metrics.set("latency_p50_ms", latency.p50);
    out.metrics.set("latency_p99_ms", latency.tail);
    out.attempted += users as u64;

    // Output check, untimed: the leading users re-run serially must
    // reproduce the fleet's reports exactly.
    let mut mismatched = 0;
    for (k, fleet_report) in kept.iter().enumerate() {
        let user = first_user + k as u64;
        out.attempted += 1;
        if s.sys.run_with(&s.sessions[(user % 6) as usize], user) != *fleet_report {
            mismatched += 1;
        }
    }
    out.failed += mismatched;
    println!(
        "check: {} users re-run serially vs fleet reports: {}",
        kept.len(),
        if mismatched == 0 { "ok" } else { "MISMATCH" }
    );
    out.digest.feed(&kept);

    if run.traced {
        let m = &mut out.metrics;
        m.set("proc.cpu_util", proc.cpu_util);
        m.set("proc.peak_threads", proc.peak_threads as f64);
        m.set("proc.ctx_switches_involuntary", proc.ctx_switches_involuntary as f64);
        let snapshot = observer.metrics();
        let busy: Vec<f64> = snapshot
            .iter()
            .filter(|(n, _)| n.starts_with(names::FLEET_WORKER_BUSY_PREFIX))
            .filter_map(|(_, v)| match v {
                MetricSnapshot::Gauge(g) => Some(*g),
                _ => None,
            })
            .collect();
        let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        m.set("sched.lane_busy_imbalance", busy.iter().copied().fold(0.0, f64::max) / mean_busy);
        for stage in ["plan", "fetch", "render", "account"] {
            let sum = snapshot.iter().find_map(|(n, v)| match v {
                MetricSnapshot::Histogram(h) if *n == names::pipeline_stage_seconds(stage) => {
                    Some(h.sum)
                }
                _ => None,
            });
            m.set(&format!("client.{stage}_busy_s"), sum.unwrap_or(0.0));
        }
        let counter = |name: &str| {
            snapshot.iter().find_map(|(n, v)| match v {
                MetricSnapshot::Counter(c) if n == name => Some(*c),
                _ => None,
            })
        };
        let server_calls = counter(names::SAS_FOV_REQUESTS).unwrap_or(0)
            + counter(names::SAS_ORIGINAL_REQUESTS).unwrap_or(0);
        m.set("server.calls", server_calls as f64);
        for (i, (_, label)) in VARIANTS.iter().enumerate() {
            let own: Vec<f64> = session_ms
                .iter()
                .enumerate()
                .filter(|(k, _)| (first_user + *k as u64) % 6 == i as u64)
                .map(|(_, w)| *w)
                .collect();
            m.set(&format!("client.session_ms.{label}"), Dist::of(own, 0.5).mean);
            m.set(&format!("pte.session_build_ms.{label}"), s.build_ms[i]);
        }
        m.set("client.fov_hit_ratio", hits as f64 / lookups.max(1) as f64);
        m.set("client.calls", users as f64);
        m.set("sas.ingest_video_s", s.ingest_s);
        m.set("sas.ingest_tiled_s", s.tiled_s);
        let catalog = s.sys.server().catalog();
        let streams: usize =
            (0..catalog.segment_count()).map(|g| catalog.clusters_in_segment(g).len()).sum();
        m.set("sas.fov_streams", streams as f64);
        m.set("sas.degraded_segments", catalog.degraded_segments().len() as f64);
        let reads =
            (store_after.hits + store_after.misses) - (store_before.hits + store_before.misses);
        m.set(
            "store.hit_ratio",
            (store_after.hits - store_before.hits) as f64 / reads.max(1) as f64,
        );
        m.set("store.evictions", (store_after.evictions - store_before.evictions) as f64);
        m.set("store.reconstructs", (store_after.reconstructs - store_before.reconstructs) as f64);
        m.set(
            "store.writes",
            (store.len() as f64 - entries_before as f64).abs()
                + (store_after.evictions - store_before.evictions) as f64
                + (store_after.misses - store_before.misses) as f64,
        );
        m.set("store.resident_mb", store.resident_bytes() as f64 / (1 << 20) as f64);
        m.set("store.delta_entries", store.delta_entries() as f64);
        m.set(
            "projection.calls",
            ((lut_after.hits + lut_after.misses) - (lut_before.hits + lut_before.misses)) as f64,
        );

        // evr-trace: head-trace generation, replayed for sample users.
        let mut trace_us = Vec::new();
        for k in 0..60 {
            let t = Instant::now();
            std::hint::black_box(s.sys.user_trace(first_user + k));
            trace_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.set("trace.user_trace_us", median(&trace_us));
        m.set("trace.calls", (users + trace_us.len()) as f64);

        // The tiled rate allocator, replayed on every segment at the
        // segment-start poses of sample users.
        let tiles = s.sys.tiled_rates();
        let grid = tiles.grid();
        let weights = grid.tile_weights();
        let fov = s.sys.sas_config().device_fov;
        let mut alloc_us = Vec::new();
        for k in 0..20 {
            let trace = s.sys.user_trace(first_user + k);
            for seg in 0..tiles.segment_count() {
                let rung_bytes = tiles.tile_rung_bytes(seg);
                let classes =
                    grid.classify_tiles(trace.pose_at(f64::from(seg)), fov, PERIPHERY_MARGIN);
                // A budget that affords about the middle rung everywhere.
                let budget: u64 = rung_bytes.iter().map(|r| r[r.len() / 2]).sum();
                let t = Instant::now();
                std::hint::black_box(allocate_tile_rungs(&rung_bytes, &weights, &classes, budget));
                alloc_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        m.set("client.allocate_tile_rungs_us", median(&alloc_us));

        // Tracing overhead: fixed batches untraced vs traced, alternating.
        let plain_sessions = plain.expect("traced runs keep the plain sessions");
        let plain_fleet = FleetRunner::new(run.cores);
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for rep in 0..3 {
            let first = first_user + 10_000 * (rep + 1);
            for (sessions, fleet, into) in
                [(&plain_sessions, &plain_fleet, &mut off), (&s.sessions, &fleet, &mut on)]
            {
                let t = Instant::now();
                play(&s.sys, sessions, fleet, first, 2 * BATCH);
                into.push(t.elapsed().as_secs_f64());
            }
        }
        m.set("obs.trace_overhead_frac", median(&on) / median(&off) - 1.0);
    }
    out
}
