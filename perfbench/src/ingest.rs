//! `ingest`: cold uploads of Paris (13 objects, the most of any video),
//! back to back as a batch job at `workers = cores`. One upload runs the
//! three cloud-side stages a video passes through before it can be
//! served: `ingest_video_with` into an empty `FovPrerenderStore`, the
//! delta FOV rung ladder (`populate_fov_ladder`), and the tiled-rate
//! catalog (`ingest_tiled_rates_with`).
//!
//! The upload is the same on every run: the paper-default `SasConfig`,
//! detector seed included. A seeded detector changes how many clusters,
//! and so FOV videos, each segment gets, which would make the seed, not
//! the code, move the throughput. `--seed` is accepted and has no effect.

use std::time::Instant;

use evr_math::{EulerAngles, Radians, Vec3};
use evr_obs::{names, Observer, Timeline, TimelineEvent};
use evr_projection::lut::SamplingMapCache;
use evr_projection::pixel::downsample2x;
use evr_projection::{FilterMode, Projection, Transformer, Viewport};
use evr_sas::{
    fov_rung_quantizers, ingest_tiled_rates_with, ingest_video_with, populate_fov_ladder,
    FovLadderStats, FovPrerenderStore, IngestOptions, SasCatalog, SasConfig, TiledRateCatalog,
};
use evr_semantics::{select_k, validate_detections, ClusterTrajectory, Tracker};
use evr_video::library::{scene_for, VideoId};
use evr_video::scene::Scene;
use evr_video::{CodecConfig, Encoder};

use crate::probe::{with_probe, StealClock};
use crate::stats::{median, Dist};
use crate::{timed_setup, Outcome, Run};

const VIDEO: VideoId = VideoId::Paris;
/// Content per upload, seconds (one 30-frame segment per second): one
/// segment per worker on a 2-core host.
const UPLOAD_S: f64 = 2.0;
/// The set-up's warm-up upload, seconds: two frames through all three
/// stages.
const WARMUP_S: f64 = 2.0 / 30.0;
/// Leading content the serial reference ingest re-does, seconds.
const CHECK_S: f64 = 1.0;
const FPS: f64 = 30.0;

struct Input {
    scene: Scene,
    cfg: SasConfig,
}

fn input() -> Input {
    Input { scene: scene_for(VIDEO), cfg: SasConfig::default() }
}

/// One upload made servable, with the wall time of each stage.
struct Upload {
    catalog: SasCatalog,
    ladder: FovLadderStats,
    tiles: TiledRateCatalog,
    stage_s: [f64; 3],
}

fn upload(inp: &Input, duration_s: f64, workers: usize, observer: &Observer) -> Upload {
    let store = FovPrerenderStore::new();
    let options = IngestOptions { workers, store: Some(store.clone()), observer: observer.clone() };
    let t0 = Instant::now();
    let catalog = ingest_video_with(&inp.scene, &inp.cfg, duration_s, &options)
        .expect("the paper-default configuration ingests");
    let t1 = Instant::now();
    let ladder =
        populate_fov_ladder(&catalog, &store, &fov_rung_quantizers(&inp.cfg), workers, true);
    let t2 = Instant::now();
    let tiles = ingest_tiled_rates_with(&inp.scene, &inp.cfg, duration_s, workers);
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Upload { catalog, ladder, tiles, stage_s: [secs(t0, t1), secs(t1, t2), secs(t2, t3)] }
}

fn stream_count(catalog: &SasCatalog) -> usize {
    (0..catalog.segment_count()).map(|s| catalog.clusters_in_segment(s).len()).sum()
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(|| {
        let inp = input();
        upload(&inp, WARMUP_S, run.cores, &Observer::noop());
        inp
    });
    out.metrics.set("setup_s", setup_s);

    let timeline = Timeline::bounded(1 << 16);
    let observer = if run.traced {
        Observer::enabled().with_timeline(timeline.clone())
    } else {
        Observer::noop()
    };
    let lut = SamplingMapCache::shared();
    let lut_before = lut.stats();
    let ((elapsed_s, walls, rates, windows, stage_sums, segments, last), proc) =
        with_probe(run.traced, run.cores, || {
            let start = Instant::now();
            let mut walls = Vec::new();
            let mut rates = Vec::new();
            let mut windows = Vec::new();
            let mut stage_sums = [0.0; 3];
            let mut segments = 0u64;
            let mut last = None;
            while walls.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
                drop(last.take());
                let (clock, tl0) = (StealClock::start(), timeline.now_ns());
                let up = upload(&inp, UPLOAD_S, run.cores, &observer);
                let wall_s = clock.effective_s();
                walls.push(wall_s * 1e3);
                rates.push(f64::from(up.catalog.segment_count()) / wall_s);
                windows.push((tl0, timeline.now_ns()));
                for (sum, s) in stage_sums.iter_mut().zip(up.stage_s) {
                    *sum += s;
                }
                segments += u64::from(up.catalog.segment_count());
                last = Some(up);
            }
            (start.elapsed().as_secs_f64(), walls, rates, windows, stage_sums, segments, last)
        });
    let lut_after = lut.stats();
    let last = last.expect("at least one upload");
    let passes = walls.len();
    let latency = Dist::of(walls, 0.99);
    println!(
        "ingest: {passes} uploads of {UPLOAD_S} s of {VIDEO:?}, {segments} segments in \
         {elapsed_s:.3} s; upload wall {}",
        latency.describe("ms")
    );
    // The median upload's rate: a slow spell of the host moves one
    // upload, not the result.
    out.metrics.set("throughput_per_s", median(&rates));
    out.metrics.set("latency_p50_ms", latency.p50);
    out.metrics.set("latency_p99_ms", latency.tail);
    out.attempted += segments;

    // Output check, untimed: a serial ingest of the leading segments
    // must reproduce the parallel catalog's payloads byte for byte.
    let serial = ingest_video_with(&inp.scene, &inp.cfg, CHECK_S, &IngestOptions::serial())
        .expect("the serial reference ingests");
    let mut mismatched = 0u64;
    for seg in 0..serial.segment_count() {
        out.attempted += 1;
        if !segment_matches(&serial, &last.catalog, seg) {
            mismatched += 1;
        }
    }
    let rungs = fov_rung_quantizers(&inp.cfg).len();
    out.attempted += 1;
    if last.ladder.inserted != stream_count(&last.catalog) * rungs
        || last.tiles.segment_count() != last.catalog.segment_count()
    {
        mismatched += 1;
    }
    out.failed += mismatched;
    println!(
        "check: serial reference of {} segment(s) vs parallel catalog, ladder {} entries \
         ({} delta), tiles {} segments: {}",
        serial.segment_count(),
        last.ladder.inserted,
        last.ladder.delta_won,
        last.tiles.segment_count(),
        if mismatched == 0 { "ok" } else { "MISMATCH" }
    );
    out.digest.feed(&last.catalog);
    out.digest.feed(&last.ladder);
    out.digest.feed(&last.tiles);

    if run.traced {
        let m = &mut out.metrics;
        m.set("proc.cpu_util", proc.cpu_util);
        m.set("proc.peak_threads", proc.peak_threads as f64);
        m.set("proc.ctx_switches_involuntary", proc.ctx_switches_involuntary as f64);
        let events: Vec<TimelineEvent> = timeline
            .events()
            .into_iter()
            .filter(|e| e.stage == names::TIMELINE_INGEST_SEGMENT)
            .collect();
        m.set("sched.lane_busy_imbalance", lane_imbalance(&events, &windows));
        let seg_ms = Dist::of(events.iter().map(|e| e.duration_ns() as f64 / 1e6).collect(), 0.99);
        println!("trace: ingest_segment {}", seg_ms.describe("ms"));
        m.set("sas.segment_ms.p50", seg_ms.p50);
        m.set("sas.segment_ms.p99", seg_ms.tail);
        m.set("sas.ingest_calls", (3 * passes) as f64);
        for (name, sum) in ["sas.ingest_video_s", "sas.populate_ladder_s", "sas.ingest_tiled_s"]
            .into_iter()
            .zip(stage_sums)
        {
            m.set(name, sum / passes as f64);
        }
        m.set("sas.fov_streams", stream_count(&last.catalog) as f64);
        m.set("sas.degraded_segments", last.catalog.degraded_segments().len() as f64);
        let lookups = (lut_after.hits + lut_after.misses) - (lut_before.hits + lut_before.misses);
        m.set(
            "projection.lut_hit_ratio",
            (lut_after.hits - lut_before.hits) as f64 / lookups.max(1) as f64,
        );

        // Sub-layers, replayed on this workload's first and last segment.
        let sample = [0, (UPLOAD_S * FPS) as u64 / u64::from(inp.cfg.segment_frames) - 1];
        let mut replay = Replay::default();
        let mut busy_ms = 0.0;
        for &seg in &sample {
            replay_segment(&inp, seg, &mut replay);
            let own: Vec<f64> = events
                .iter()
                .filter(|e| e.ctx.segment == seg as i64)
                .map(|e| e.duration_ns() as f64 / 1e6)
                .collect();
            busy_ms += own.iter().sum::<f64>() / own.len().max(1) as f64;
        }
        let explained_ms: f64 =
            replay.all().iter().map(|v| v.iter().sum::<f64>()).sum::<f64>() / 1e3;
        println!(
            "replay: segments {sample:?} explain {explained_ms:.1} ms of {busy_ms:.1} ms measured \
             segment busy time"
        );
        m.set("sas.layer_coverage", explained_ms / busy_ms.max(1e-9));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.set("video.render_image_us", mean(&replay.render_image));
        m.set("video.encode_frame_us", mean(&replay.encode_frame));
        m.set("semantics.detect_us", mean(&replay.detect));
        m.set("semantics.select_k_us", mean(&replay.select_k));
        m.set("projection.fov_frame_us", mean(&replay.fov_frame));
        m.set("video.calls", (replay.render_image.len() + replay.encode_frame.len()) as f64);
        m.set("semantics.calls", (replay.detect.len() + replay.select_k.len()) as f64);
        m.set("projection.calls", (lookups as usize + replay.fov_frame.len()) as f64);

        // Tracing overhead: the warm-up upload with and without the
        // timeline, alternating.
        let traced_obs = Observer::enabled().with_timeline(Timeline::bounded(1 << 12));
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for (obs, into) in [(Observer::noop(), &mut plain), (traced_obs.clone(), &mut traced)] {
                let t = Instant::now();
                upload(&inp, WARMUP_S, run.cores, &obs);
                into.push(t.elapsed().as_secs_f64());
            }
        }
        m.set("obs.trace_overhead_frac", median(&traced) / median(&plain) - 1.0);
    }
    out
}

/// Widest lane busy time ÷ mean lane busy time, per upload (the
/// `ingest_segment` intervals inside its window), averaged over uploads.
fn lane_imbalance(events: &[TimelineEvent], windows: &[(u64, u64)]) -> f64 {
    let per_upload: Vec<f64> = windows
        .iter()
        .filter_map(|&(a, b)| {
            let mut busy = std::collections::BTreeMap::<u32, f64>::new();
            for e in events.iter().filter(|e| e.start_ns >= a && e.end_ns <= b) {
                *busy.entry(e.worker).or_default() += e.duration_ns() as f64;
            }
            let widest = busy.values().copied().fold(0.0, f64::max);
            let mean = busy.values().sum::<f64>() / busy.len().max(1) as f64;
            (mean > 0.0).then(|| widest / mean)
        })
        .collect();
    per_upload.iter().sum::<f64>() / per_upload.len().max(1) as f64
}

fn segment_matches(serial: &SasCatalog, parallel: &SasCatalog, seg: u32) -> bool {
    let clusters = serial.clusters_in_segment(seg);
    serial.try_original_segment(seg) == parallel.try_original_segment(seg)
        && clusters == parallel.clusters_in_segment(seg)
        && clusters.iter().all(|&c| {
            let a = serial.fov_stream(seg, c).and_then(|s| serial.read_fov(s));
            let b = parallel.fov_stream(seg, c).and_then(|s| parallel.read_fov(s));
            a.is_some() && a == b
        })
}

/// Per-call wall times of the replayed sub-layer calls, microseconds.
#[derive(Debug, Default)]
struct Replay {
    render_image: Vec<f64>,
    encode_frame: Vec<f64>,
    detect: Vec<f64>,
    select_k: Vec<f64>,
    fov_frame: Vec<f64>,
}

impl Replay {
    fn all(&self) -> [&Vec<f64>; 5] {
        [&self.render_image, &self.encode_frame, &self.detect, &self.select_k, &self.fov_frame]
    }
}

fn timed<R>(into: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    into.push(t.elapsed().as_secs_f64() * 1e6);
    r
}

/// Replays one segment's ingest through the sub-layers' public calls,
/// in the order the SAS pipeline makes them (paper §5.3): render the
/// source frames, encode the original, detect and track, cluster at the
/// key frame, then render and encode one FOV video per cluster.
fn replay_segment(inp: &Input, seg: u64, r: &mut Replay) {
    let cfg = &inp.cfg;
    let seg_len = u64::from(cfg.segment_frames);
    let total = (UPLOAD_S * FPS).floor() as u64;
    let times: Vec<f64> =
        (seg * seg_len..((seg + 1) * seg_len).min(total)).map(|i| i as f64 / FPS).collect();
    let (w, h) = cfg.analysis_src;
    let sources: Vec<_> = times
        .iter()
        .map(|&t| timed(&mut r.render_image, || inp.scene.render_image(t, Projection::Erp, w, h)))
        .collect();
    let mut enc = Encoder::new(cfg.codec);
    enc.force_intra();
    for img in &sources {
        timed(&mut r.encode_frame, || enc.encode_frame(img));
    }
    let mut tracker = Tracker::new(Radians(0.2), 3);
    for &t in &times {
        let detections = timed(&mut r.detect, || cfg.detector.detect(&inp.scene, t));
        if validate_detections(&detections).is_err() {
            return;
        }
        tracker.observe(t, &detections);
    }
    let tracks = tracker.into_tracks();
    if tracks.is_empty() {
        return;
    }
    let points: Vec<Vec3> = tracks.iter().map(|tr| tr.position_at(times[0])).collect();
    let Ok(clustering) = timed(&mut r.select_k, || {
        select_k(&points, cfg.cluster_spread, cfg.max_clusters, 0xC1A5 ^ seg)
    }) else {
        return;
    };
    let trajectories = ClusterTrajectory::build_all(&clustering, &tracks, &times, cfg.smoothing);
    let (fw, fh) = cfg.analysis_fov;
    let renderer = Transformer::new(
        Projection::Erp,
        FilterMode::Bilinear,
        cfg.stream_fov(),
        Viewport::new(fw * 2, fh * 2),
    );
    let lut = SamplingMapCache::shared();
    // Object utilisation is 1 in the default configuration: every
    // cluster gets its FOV video.
    for traj in &trajectories {
        let mut enc = Encoder::new(CodecConfig::new(cfg.segment_frames, cfg.fov_quantizer));
        enc.force_intra();
        for (src, &t) in sources.iter().zip(&times) {
            let orientation = snap_orientation(traj.orientation_at(t));
            let image = timed(&mut r.fov_frame, || {
                let (map, _) = lut.reference_map(&renderer, orientation, 1);
                let coords = map.as_reference().expect("reference lookups yield reference maps");
                downsample2x(&renderer.render_with_map(src, coords))
            });
            timed(&mut r.encode_frame, || enc.encode_frame(&image));
        }
    }
}

/// The 3° orientation grid SAS snaps FOV-video orientations to, so the
/// replay looks up the same sampling maps the pipeline does.
fn snap_orientation(o: EulerAngles) -> EulerAngles {
    let grid = 3.0f64.to_radians();
    let snap = |r: Radians| Radians((r.0 / grid).round() * grid);
    EulerAngles::new(snap(o.yaw), snap(o.pitch), o.roll)
}
