//! The SAS ingestion pipeline: segment → detect → cluster → track →
//! pre-render FOV videos → encode → store (paper §5.3, Fig. 7).
//!
//! Segments fan out across a scoped thread pool with `evr-sched`'s
//! chunked self-scheduling (workers pull fixed-size index chunks from a
//! shared cursor), mirroring `evr-core`'s `FleetRunner`: every segment
//! is a pure function of `(scene, config, segment index)`, results are
//! collected with their chunk index, sorted, and appended to the logs
//! in ascending segment order — so the catalog is byte-identical to a
//! serial ingest for *any* worker count (DESIGN.md §13). Degenerate segments — zero detections, NaN
//! detector output, clustering failure — degrade to original-only
//! serving instead of panicking the pipeline.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use evr_math::Vec3;
use evr_projection::{FilterMode, FovFrameMeta, ImageBuffer, Transformer, Viewport};
use evr_semantics::cluster::ClusterTrajectory;
use evr_semantics::detector::validate_detections;
use evr_semantics::kmeans::select_k;
use evr_semantics::tracker::Tracker;
use evr_video::codec::{CodecConfig, EncodedSegment, Encoder};
use evr_video::frame::VideoMeta;
use evr_video::scene::Scene;

use crate::config::SasConfig;
use crate::prerender::{content_fingerprint, FovPrerenderStore, PrerenderKey, PrerenderedFov};
use crate::store::{LogStore, RecordId};

/// Playback frame rate of all SAS content (the paper's evaluation runs at
/// 30 FPS).
pub const FPS: f64 = 30.0;

/// Index entry for one pre-rendered FOV video of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FovStream {
    /// Temporal segment index.
    pub segment_index: u32,
    /// Cluster index within the segment.
    pub cluster: usize,
    /// Number of objects in the cluster (drives the utilisation knob).
    pub members: u32,
    /// Record of the encoded FOV segment in the data log.
    pub data: RecordId,
    /// Record of the per-frame orientation metadata in the metadata log.
    pub meta: RecordId,
}

/// Why ingestion rejected its inputs outright (per-segment trouble never
/// surfaces here — degenerate segments degrade to original-only serving
/// and are listed in [`SasCatalog::degraded_segments`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IngestError {
    /// The configuration failed [`SasConfig::validate`].
    InvalidConfig(String),
    /// The requested duration covers no complete frame.
    NoFrames,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::InvalidConfig(reason) => {
                write!(f, "invalid SAS configuration: {reason}")
            }
            IngestError::NoFrames => write!(f, "duration covers no frames"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Knobs for [`ingest_video_with`].
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Worker threads for the segment fan-out; `0` means one per
    /// available core. The catalog is byte-identical for any value.
    pub workers: usize,
    /// Pre-render store consulted before rendering each cluster's FOV
    /// video and fed with every render — repeated ingests of the same
    /// content (fleet sweeps, figure scripts) skip the render+encode.
    pub store: Option<FovPrerenderStore>,
    /// Receives the `evr_ingest_*` metrics (segment counts, degraded
    /// segments, worker count, wall-clock) and the store's counters. The
    /// default no-op observer records nothing; the catalog is identical
    /// either way.
    pub observer: evr_obs::Observer,
}

impl IngestOptions {
    /// Serial, store-less ingest — the reference configuration the
    /// parity checks compare everything else against.
    pub fn serial() -> Self {
        IngestOptions { workers: 1, ..IngestOptions::default() }
    }
}

/// Everything the SAS server holds for one ingested video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SasCatalog {
    config: SasConfig,
    /// Data log: encoded FOV segments (append-only).
    fov_log: LogStore<EncodedSegment>,
    /// Separate metadata log: per-frame orientations of each FOV segment.
    meta_log: LogStore<Vec<FovFrameMeta>>,
    /// Original video segments (the FOV-miss fallback).
    original_log: LogStore<EncodedSegment>,
    /// `(segment, cluster)` index over the data/metadata logs.
    index: BTreeMap<(u32, usize), FovStream>,
    /// Per-segment record of the original stream.
    originals: Vec<RecordId>,
    /// Analysis-scale metadata of the original stream.
    original_meta: VideoMeta,
    /// Fingerprint of `(scene, frames, config)` — the pre-render store
    /// key namespace for this content.
    content_id: u64,
    /// Segments whose semantics stage rejected the detector output (NaN
    /// detections, clustering failure): they serve the original video
    /// only. Ascending, deduplicated.
    degraded_segments: Vec<u32>,
}

impl SasCatalog {
    /// The configuration the catalog was ingested with.
    pub fn config(&self) -> &SasConfig {
        &self.config
    }

    /// Number of temporal segments.
    pub fn segment_count(&self) -> u32 {
        self.originals.len() as u32
    }

    /// Analysis-scale metadata of the original stream.
    pub fn original_meta(&self) -> VideoMeta {
        self.original_meta
    }

    /// The FOV stream for `(segment, cluster)`, if materialised.
    pub fn fov_stream(&self, segment: u32, cluster: usize) -> Option<&FovStream> {
        self.index.get(&(segment, cluster))
    }

    /// Clusters with materialised FOV videos in `segment`.
    pub fn clusters_in_segment(&self, segment: u32) -> Vec<usize> {
        self.index.range((segment, 0)..=(segment, usize::MAX)).map(|((_, c), _)| *c).collect()
    }

    /// The content fingerprint this catalog was ingested under — the
    /// namespace its pre-renders live in inside a [`FovPrerenderStore`].
    pub fn content_id(&self) -> u64 {
        self.content_id
    }

    /// Segments whose detector output was rejected during ingest; they
    /// carry no FOV streams and serve the original video only.
    pub fn degraded_segments(&self) -> &[u32] {
        &self.degraded_segments
    }

    /// Reads an FOV stream's encoded segment and orientation metadata,
    /// or `None` if the stream's records are missing (catalog
    /// corruption — the serving path maps this to an error response, it
    /// must never panic a shared server).
    pub fn read_fov(&self, stream: &FovStream) -> Option<(&EncodedSegment, &[FovFrameMeta])> {
        let data = self.fov_log.read(stream.data)?;
        let meta = self.meta_log.read(stream.meta)?;
        Some((data, meta.as_slice()))
    }

    /// The original encoded segment, or `None` if `segment` is out of
    /// range or its record is missing.
    pub fn try_original_segment(&self, segment: u32) -> Option<&EncodedSegment> {
        let id = *self.originals.get(segment as usize)?;
        self.original_log.read(id)
    }

    /// Wire bytes of an FOV segment at target (paper) scale (0 if the
    /// record is missing).
    pub fn fov_target_bytes(&self, stream: &FovStream) -> u64 {
        self.fov_log
            .read(stream.data)
            .map_or(0, |seg| seg.scaled_bytes(self.config.fov_byte_scale()))
    }

    /// Wire bytes of an original segment at target (paper) scale, or
    /// `None` where [`SasCatalog::try_original_segment`] finds no segment.
    pub fn original_target_bytes(&self, segment: u32) -> Option<u64> {
        let scale = self.config.src_byte_scale();
        self.try_original_segment(segment).map(|seg| seg.scaled_bytes(scale))
    }

    /// Total stored FOV bytes at target scale (live streams only — the
    /// index, not the raw append-only log, defines what the store keeps).
    pub fn total_fov_target_bytes(&self) -> u64 {
        self.index.values().map(|s| self.fov_target_bytes(s)).sum()
    }

    /// Total original-video bytes at target scale.
    pub fn total_original_target_bytes(&self) -> u64 {
        self.original_log
            .iter()
            .map(|(_, seg)| seg.scaled_bytes(self.config.src_byte_scale()))
            .sum()
    }

    /// Fig. 14's storage overhead: stored FOV bytes relative to the
    /// original video size (at target scale).
    pub fn storage_overhead(&self) -> f64 {
        self.total_fov_target_bytes() as f64 / self.total_original_target_bytes() as f64
    }

    /// Derives a catalog as if it had been ingested with a lower object
    /// utilisation: per segment, clusters are kept largest-first until
    /// `utilization` of the segment's objects are covered (the Fig. 14
    /// sweep, without re-running the expensive ingestion).
    ///
    /// # Errors
    ///
    /// [`IngestError::InvalidConfig`] if `utilization` fails
    /// [`SasConfig::validate`] (outside `[0, 1]`, or NaN) or exceeds the
    /// catalog's ingested utilisation (streams that were never
    /// materialised cannot be conjured back).
    pub fn with_utilization(&self, utilization: f64) -> Result<SasCatalog, IngestError> {
        let config = SasConfig { object_utilization: utilization, ..self.config };
        config.validate().map_err(IngestError::InvalidConfig)?;
        if utilization > self.config.object_utilization {
            return Err(IngestError::InvalidConfig(format!(
                "cannot raise utilisation above the ingested {}",
                self.config.object_utilization
            )));
        }
        let mut out = self.clone();
        out.config = config;
        out.index.clear();
        for seg in 0..self.segment_count() {
            let mut streams: Vec<&FovStream> =
                self.index.range((seg, 0)..=(seg, usize::MAX)).map(|(_, s)| s).collect();
            streams.sort_by_key(|s| std::cmp::Reverse(s.members));
            let total: u32 = streams.iter().map(|s| s.members).sum();
            let budget = (utilization * total as f64).ceil() as u32;
            let mut used = 0u32;
            for stream in streams {
                if used >= budget {
                    continue;
                }
                used += stream.members;
                out.index.insert((seg, stream.cluster), *stream);
            }
        }
        Ok(out)
    }

    /// Garbage-collects the data and metadata logs: rewrites them keeping
    /// only records the index still references (after
    /// [`SasCatalog::with_utilization`] dropped streams) and fixes up the
    /// index. Returns the bytes reclaimed from the FOV data log.
    pub fn compact(&mut self) -> u64 {
        let live_data: std::collections::HashSet<RecordId> =
            self.index.values().map(|s| s.data).collect();
        let live_meta: std::collections::HashSet<RecordId> =
            self.index.values().map(|s| s.meta).collect();
        let before = self.fov_log.total_bytes();

        let fov_log = std::mem::take(&mut self.fov_log);
        let (fov_log, data_map) = fov_log.compact(|id| live_data.contains(&id));
        self.fov_log = fov_log;
        let meta_log = std::mem::take(&mut self.meta_log);
        let (meta_log, meta_map) = meta_log.compact(|id| live_meta.contains(&id));
        self.meta_log = meta_log;

        for stream in self.index.values_mut() {
            stream.data = data_map[&stream.data];
            stream.meta = meta_map[&stream.meta];
        }
        before - self.fov_log.total_bytes()
    }
}

/// Runs the full ingestion pipeline over `duration_s` seconds of `scene`.
///
/// The catalog is byte-identical for any worker count and with or
/// without a pre-render store (`ingest_bench` enforces this at run
/// time); only wall-clock changes.
///
/// # Errors
///
/// Returns [`IngestError`] on an invalid configuration or a duration
/// covering no complete frame. Per-segment detector trouble never
/// errors: those segments degrade to original-only serving and are
/// listed in [`SasCatalog::degraded_segments`].
pub fn ingest_video_with(
    scene: &Scene,
    config: &SasConfig,
    duration_s: f64,
    options: &IngestOptions,
) -> Result<SasCatalog, IngestError> {
    let plan = SegmentPlan::new(scene, config, duration_s)?;
    let (src_w, src_h) = config.analysis_src;
    let original_meta = VideoMeta::new(src_w, src_h, FPS, evr_projection::Projection::Erp);
    let (fov_w, fov_h) = config.analysis_fov;
    let stream_fov = config.stream_fov();
    // Render FOV frames 2×-supersampled and box-filter down: the
    // perspective mapping undersamples the source near the frame centre,
    // and un-prefiltered aliasing noise would wreck the FOV videos'
    // compressibility (a real pre-render pipeline low-passes too).
    let fov_renderer = Transformer::new(
        evr_projection::Projection::Erp,
        FilterMode::Bilinear,
        stream_fov,
        Viewport::new(fov_w * 2, fov_h * 2),
    );

    let content_id = content_fingerprint(scene.name(), plan.total_frames, config);
    let mut catalog = SasCatalog {
        config: *config,
        fov_log: LogStore::new(),
        meta_log: LogStore::new(),
        original_log: LogStore::new(),
        index: BTreeMap::new(),
        originals: Vec::new(),
        original_meta,
        content_id,
        degraded_segments: Vec::new(),
    };

    let segment_count = plan.segment_count();
    let ctx = SegmentContext {
        plan: &plan,
        fov_renderer: &fov_renderer,
        stream_fov,
        content_id,
        store: options.store.as_ref(),
    };

    // Segments are independent (each starts with an intra frame and a
    // fresh key-frame clustering), so ingestion fans out across threads
    // through the chunked self-scheduler; results are sorted by segment
    // and appended to the logs in segment order — byte-identical for
    // any worker count.
    let start = std::time::Instant::now();
    let workers = evr_sched::resolve_workers(options.workers, segment_count);
    // On a timed observer every segment is also recorded as an
    // `ingest_segment` timeline interval on its worker's lane, turning
    // the fan-out into a per-thread Gantt chart.
    let tl = options.observer.timeline();
    let results: Vec<SegmentResult> = if tl.is_enabled() {
        evr_sched::run_chunked(segment_count, workers, 0, |seg| {
            let t0 = tl.now_ns();
            let result = ingest_segment(&ctx, seg);
            let tctx = evr_obs::TraceCtx::anonymous().with_segment(seg as i64);
            tl.record(evr_obs::names::TIMELINE_INGEST_SEGMENT, tctx, t0, tl.now_ns());
            result
        })
    } else {
        evr_sched::run_chunked(segment_count, workers, 0, |seg| ingest_segment(&ctx, seg))
    };

    for (seg, result) in results.into_iter().enumerate() {
        let bytes = result.original.bytes();
        let id = catalog.original_log.append(result.original, bytes);
        catalog.originals.push(id);
        if result.degraded {
            catalog.degraded_segments.push(seg as u32);
        }
        for (cluster, members, segment, meta) in result.fovs {
            let bytes = segment.bytes();
            let data = catalog.fov_log.append(segment, bytes);
            // Orientation records at their actual size, matching
            // `PrerenderedFov::cost_bytes` so the two accountings agree.
            let meta_bytes =
                (meta.len() * std::mem::size_of::<evr_projection::FovFrameMeta>()) as u64;
            let meta_id = catalog.meta_log.append(meta, meta_bytes);
            catalog.index.insert(
                (seg as u32, cluster),
                FovStream { segment_index: seg as u32, cluster, members, data, meta: meta_id },
            );
        }
    }

    let obs = &options.observer;
    if obs.is_enabled() {
        use evr_obs::names;
        obs.counter(names::INGEST_SEGMENTS).add(segment_count);
        obs.counter(names::INGEST_DEGRADED_SEGMENTS).add(catalog.degraded_segments.len() as u64);
        obs.gauge(names::INGEST_WORKERS).set(workers as f64);
        obs.gauge(names::INGEST_WALL_SECONDS).set(start.elapsed().as_secs_f64());
        if let Some(store) = &options.store {
            store.mirror(obs);
        }
    }
    Ok(catalog)
}

/// The segmentation rule every ingest catalog shares — the FOV catalog,
/// the ABR ladder ([`crate::ladder`]) and the tiled-rate catalog
/// ([`crate::tiles`]): the duration clamped to the scene and floored to
/// whole frames, cut into GOP-aligned segments of
/// [`SasConfig::segment_frames`] (the last one may be shorter; paper
/// §5.3). A segment is a pure function of `(scene, config, index)`, so
/// every catalog fans its segments out through `evr_sched::run_chunked`
/// and stays byte-identical for any worker count.
pub(crate) struct SegmentPlan<'a> {
    scene: &'a Scene,
    config: &'a SasConfig,
    total_frames: u64,
}

/// One segment of a [`SegmentPlan`].
pub(crate) struct Segment {
    /// Index of the segment's first frame in the video.
    pub(crate) start: u64,
    /// Media time of each frame, seconds.
    pub(crate) times: Vec<f64>,
    /// Each frame's ERP source at [`SasConfig::analysis_src`].
    pub(crate) sources: Vec<ImageBuffer>,
}

impl<'a> SegmentPlan<'a> {
    /// Plans `duration_s` seconds of `scene` under `config`.
    ///
    /// # Errors
    ///
    /// [`IngestError::InvalidConfig`] if `config` fails
    /// [`SasConfig::validate`], [`IngestError::NoFrames`] if the clamped
    /// duration covers no complete frame.
    pub(crate) fn new(
        scene: &'a Scene,
        config: &'a SasConfig,
        duration_s: f64,
    ) -> Result<Self, IngestError> {
        config.validate().map_err(IngestError::InvalidConfig)?;
        let total_frames = (duration_s.min(scene.duration()) * FPS).floor() as u64;
        if total_frames == 0 {
            return Err(IngestError::NoFrames);
        }
        Ok(SegmentPlan { scene, config, total_frames })
    }

    /// Number of segments.
    pub(crate) fn segment_count(&self) -> u64 {
        self.total_frames.div_ceil(u64::from(self.config.segment_frames))
    }

    /// Duration of a full segment, seconds.
    pub(crate) fn segment_duration(&self) -> f64 {
        f64::from(self.config.segment_frames) / FPS
    }

    /// Segment `seg`'s frame times and rendered ERP sources.
    pub(crate) fn segment(&self, seg: u64) -> Segment {
        let seg_len = u64::from(self.config.segment_frames);
        let start = seg * seg_len;
        let end = (start + seg_len).min(self.total_frames);
        let (w, h) = self.config.analysis_src;
        let times: Vec<f64> = (start..end).map(|i| i as f64 / FPS).collect();
        let sources = times
            .iter()
            .map(|&t| self.scene.render_image(t, evr_projection::Projection::Erp, w, h))
            .collect();
        Segment { start, times, sources }
    }
}

/// Encodes `frames` as the segment starting at frame `start`: a fresh
/// encoder under `codec`, intra-coded first (GOP-aligned).
pub(crate) fn encode_segment(
    codec: CodecConfig,
    start: u64,
    frames: &[ImageBuffer],
) -> EncodedSegment {
    let mut enc = Encoder::new(codec);
    enc.force_intra();
    EncodedSegment {
        start_index: start,
        frames: frames.iter().map(|f| enc.encode_frame(f)).collect(),
    }
}

/// Everything an ingest worker needs, shared immutably across the pool.
struct SegmentContext<'a> {
    plan: &'a SegmentPlan<'a>,
    fov_renderer: &'a Transformer,
    stream_fov: evr_projection::FovSpec,
    content_id: u64,
    store: Option<&'a FovPrerenderStore>,
}

struct SegmentResult {
    original: EncodedSegment,
    fovs: Vec<(usize, u32, EncodedSegment, Vec<FovFrameMeta>)>,
    /// The semantics stage rejected this segment's detector output.
    degraded: bool,
}

/// Snaps an FOV-video orientation to a 3° grid. Sub-degree centroid
/// wobble (detector noise) would otherwise make the pre-rendered video of
/// a *static* cluster pan continuously, destroying its inter-frame
/// compressibility; the FOV margin comfortably absorbs the ≤1.5° snap.
fn snap_orientation(o: evr_math::EulerAngles) -> evr_math::EulerAngles {
    let grid = 3.0f64.to_radians();
    let snap = |r: evr_math::Radians| evr_math::Radians((r.0 / grid).round() * grid);
    evr_math::EulerAngles::new(snap(o.yaw), snap(o.pitch), o.roll)
}

fn ingest_segment(ctx: &SegmentContext<'_>, seg: u64) -> SegmentResult {
    let (scene, config) = (ctx.plan.scene, ctx.plan.config);
    // The segment's source frames are rendered once; they feed both the
    // original encoding and every cluster's FOV rendering.
    let segment = ctx.plan.segment(seg);
    let times = &segment.times;
    let original = encode_segment(config.codec, segment.start, &segment.sources);
    let mut result = SegmentResult { original, fovs: Vec::new(), degraded: false };

    // Key-frame detection + segment-long tracking. The detector is an
    // untrusted stage: one NaN coordinate must not abort ingest, so the
    // boundary check runs per frame and a rejected frame degrades the
    // whole segment to original-only serving.
    let mut tracker = Tracker::new(evr_math::Radians(0.2), 3);
    for &t in times {
        let detections = config.detector.detect(scene, t);
        if validate_detections(&detections).is_err() {
            result.degraded = true;
            return result;
        }
        tracker.observe(t, &detections);
    }
    let tracks = tracker.into_tracks();
    if tracks.is_empty() {
        return result; // nothing to pre-render; clients will fall back
    }

    // Cluster at the key frame. `select_k` rejects degenerate inputs
    // (empty, non-finite) with an error, not a panic — map it to "no
    // FOV track for this segment" and serve the original video.
    let key_t = times[0];
    let points: Vec<Vec3> = tracks.iter().map(|tr| tr.position_at(key_t)).collect();
    let Ok(clustering) =
        select_k(&points, config.cluster_spread, config.max_clusters, 0xC1A5 ^ seg)
    else {
        result.degraded = true;
        return result;
    };
    let mut trajectories =
        ClusterTrajectory::build_all(&clustering, &tracks, times, config.smoothing);

    // Object-utilisation knob: keep the largest clusters until the
    // requested fraction of objects is covered (Fig. 14).
    trajectories.sort_by_key(|t| std::cmp::Reverse(t.members.len()));
    let total_objects: usize = trajectories.iter().map(|t| t.members.len()).sum();
    let budget = (config.object_utilization * total_objects as f64).ceil() as usize;
    let mut used = 0usize;
    trajectories.retain(|t| {
        if used >= budget {
            return false;
        }
        used += t.members.len();
        true
    });

    // Pre-render + encode one FOV video per kept cluster, through the
    // pre-render store when one is attached: a hit reuses the stored
    // segment (byte-identical — the pre-render is a pure function of
    // the key), a miss renders and publishes it for later ingests and
    // for serving.
    for traj in &trajectories {
        let render = || render_cluster_fov(ctx, traj, &segment);
        let (encoded, meta) = match ctx.store {
            Some(store) => {
                let key = PrerenderKey {
                    content: ctx.content_id,
                    segment: seg as u32,
                    cluster: traj.cluster,
                    rung: config.fov_quantizer,
                };
                let stored = store.get_or_insert_with(key, || {
                    let (data, meta) = render();
                    PrerenderedFov { data, meta }
                });
                (stored.data.clone(), stored.meta.clone())
            }
            None => render(),
        };
        result.fovs.push((traj.cluster, traj.members.len() as u32, encoded, meta));
    }
    result
}

/// Renders and encodes one cluster's FOV video — the store-miss path.
fn render_cluster_fov(
    ctx: &SegmentContext<'_>,
    traj: &ClusterTrajectory,
    segment: &Segment,
) -> (EncodedSegment, Vec<FovFrameMeta>) {
    let config = ctx.plan.config;
    let mut meta = Vec::with_capacity(segment.times.len());
    let mut images = Vec::with_capacity(segment.times.len());
    // Orientations snap to a grid, so consecutive frames — and other
    // clusters, segments and worker threads tracking the same grid
    // points — share coordinate maps through the process-wide
    // sampling-map cache.
    let lut = evr_projection::lut::SamplingMapCache::shared();
    for (src, &t) in segment.sources.iter().zip(&segment.times) {
        let orientation = snap_orientation(traj.orientation_at(t));
        let (map, _) = lut.reference_map(ctx.fov_renderer, orientation, 1);
        // Reference lookups always yield reference maps; if one ever
        // does not, truncate the cluster's FOV video (frames and meta
        // stay in lockstep) rather than panic a shared ingest node.
        let Some(coords) = map.as_reference() else {
            break;
        };
        images.push(evr_projection::pixel::downsample2x(
            &ctx.fov_renderer.render_with_map(src, coords),
        ));
        meta.push(FovFrameMeta::new(orientation, ctx.stream_fov));
    }
    let codec = CodecConfig::new(config.segment_frames, config.fov_quantizer);
    (encode_segment(codec, segment.start, &images), meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::{scene_for, VideoId};

    fn ingest(scene: &Scene, cfg: &SasConfig, secs: f64) -> SasCatalog {
        ingest_video_with(scene, cfg, secs, &IngestOptions::default()).expect("valid config")
    }

    fn tiny_catalog(video: VideoId, secs: f64) -> SasCatalog {
        ingest(&scene_for(video), &SasConfig::tiny_for_tests(), secs)
    }

    #[test]
    fn segments_cover_the_duration() {
        let c = tiny_catalog(VideoId::Rs, 2.0);
        // 60 frames at 8 per segment → 8 segments.
        assert_eq!(c.segment_count(), 8);
        for seg in 0..c.segment_count() {
            let orig = c.try_original_segment(seg).unwrap();
            assert_eq!(orig.start_index, seg as u64 * 8);
            assert!(!orig.frames.is_empty());
        }
    }

    #[test]
    fn fov_streams_exist_and_carry_metadata() {
        let c = tiny_catalog(VideoId::Rs, 1.0);
        let clusters = c.clusters_in_segment(0);
        assert!(!clusters.is_empty());
        let stream = c.fov_stream(0, clusters[0]).unwrap();
        let (data, meta) = c.read_fov(stream).unwrap();
        assert_eq!(data.frames.len(), 8);
        assert_eq!(meta.len(), 8);
        // Stream FOV is the device FOV plus margin.
        let cfg = SasConfig::tiny_for_tests();
        assert_eq!(meta[0].fov, cfg.stream_fov());
    }

    #[test]
    fn fov_frames_track_cluster_motion() {
        let c = tiny_catalog(VideoId::Rs, 2.0);
        // The RS landmark moves; FOV metadata across segments must move too.
        let first = c.fov_stream(0, c.clusters_in_segment(0)[0]).unwrap();
        let last_seg = c.segment_count() - 1;
        let last = c.fov_stream(last_seg, c.clusters_in_segment(last_seg)[0]).unwrap();
        let (_, m0) = c.read_fov(first).unwrap();
        let (_, m1) = c.read_fov(last).unwrap();
        let moved = m0[0].orientation.view_angle_to(m1[m1.len() - 1].orientation);
        assert!(moved.0 > 0.05, "moved {} rad", moved.0);
    }

    #[test]
    fn utilization_zero_keeps_nothing_one_keeps_everything() {
        let scene = scene_for(VideoId::Rhino);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.object_utilization = 0.0;
        let none = ingest(&scene, &cfg, 1.0);
        assert!(none.clusters_in_segment(0).is_empty());
        cfg.object_utilization = 1.0;
        let all = ingest(&scene, &cfg, 1.0);
        assert!(!all.clusters_in_segment(0).is_empty());
        assert!(all.total_fov_target_bytes() > 0);
    }

    #[test]
    fn lower_utilization_stores_fewer_bytes() {
        let scene = scene_for(VideoId::Paris);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.max_clusters = 4;
        cfg.object_utilization = 1.0;
        let full = ingest(&scene, &cfg, 1.0);
        cfg.object_utilization = 0.25;
        let quarter = ingest(&scene, &cfg, 1.0);
        assert!(quarter.total_fov_target_bytes() < full.total_fov_target_bytes());
    }

    #[test]
    fn storage_overhead_is_positive_multiple() {
        let c = tiny_catalog(VideoId::Timelapse, 2.0);
        let overhead = c.storage_overhead();
        assert!(overhead > 0.1, "overhead {overhead}");
    }

    #[test]
    fn try_ingest_reports_errors_instead_of_panicking() {
        let scene = scene_for(VideoId::Rs);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.smoothing = 2.0;
        assert!(matches!(
            ingest_video_with(&scene, &cfg, 1.0, &IngestOptions::default()),
            Err(IngestError::InvalidConfig(_))
        ));
        let cfg = SasConfig::tiny_for_tests();
        assert_eq!(
            ingest_video_with(&scene, &cfg, 0.001, &IngestOptions::default()),
            Err(IngestError::NoFrames)
        );
    }

    #[test]
    fn parallel_ingest_is_byte_identical_for_any_worker_count() {
        let scene = scene_for(VideoId::Rs);
        let cfg = SasConfig::tiny_for_tests();
        let serial = ingest_video_with(&scene, &cfg, 2.0, &IngestOptions::serial()).unwrap();
        for workers in [2, 3, 8, 64] {
            let opts = IngestOptions { workers, ..IngestOptions::default() };
            let parallel = ingest_video_with(&scene, &cfg, 2.0, &opts).unwrap();
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn store_backed_ingest_is_byte_identical_and_hits_on_reingest() {
        let scene = scene_for(VideoId::Rhino);
        let cfg = SasConfig::tiny_for_tests();
        let plain = ingest_video_with(&scene, &cfg, 1.0, &IngestOptions::serial()).unwrap();
        let store = crate::prerender::FovPrerenderStore::new();
        let cold_opts =
            IngestOptions { workers: 2, store: Some(store.clone()), ..IngestOptions::default() };
        let cold = ingest_video_with(&scene, &cfg, 1.0, &cold_opts).unwrap();
        assert_eq!(plain, cold, "store-backed ingest diverged");
        assert!(!store.is_empty(), "ingest should publish pre-renders");
        let cold_stats = store.stats();
        // Re-ingesting the same content hits the store for every cluster.
        let warm = ingest_video_with(&scene, &cfg, 1.0, &cold_opts).unwrap();
        assert_eq!(plain, warm, "warm ingest diverged");
        let warm_stats = store.stats();
        assert!(warm_stats.hits > cold_stats.hits, "warm ingest should hit");
        assert_eq!(warm_stats.misses, cold_stats.misses, "warm ingest should not miss");
    }

    #[test]
    fn zero_detection_segment_serves_original_only() {
        let scene = scene_for(VideoId::Rs);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.detector.miss_rate = 1.0; // every real object dropped...
        cfg.detector.spurious_rate = 0.0; // ...and no spurious boxes either
        let c = ingest_video_with(&scene, &cfg, 1.0, &IngestOptions::default()).unwrap();
        assert!(c.segment_count() > 0);
        for seg in 0..c.segment_count() {
            assert!(c.clusters_in_segment(seg).is_empty());
            assert!(!c.try_original_segment(seg).unwrap().frames.is_empty());
        }
        // No detections is normal empty content, not degradation.
        assert!(c.degraded_segments().is_empty());
    }

    #[test]
    fn nan_detections_degrade_to_original_serving() {
        let scene = scene_for(VideoId::Rs);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.detector.localization_noise = f64::NAN; // NaN through perturbation
        let c = ingest_video_with(&scene, &cfg, 1.0, &IngestOptions::default()).unwrap();
        assert!(c.segment_count() > 0);
        for seg in 0..c.segment_count() {
            assert!(c.clusters_in_segment(seg).is_empty(), "segment {seg} kept a FOV stream");
            assert!(!c.try_original_segment(seg).unwrap().frames.is_empty());
        }
        assert_eq!(c.degraded_segments().len(), c.segment_count() as usize);
    }

    #[test]
    fn single_frame_segment_ingests_and_serves() {
        // 9 frames at 8 per segment → the last segment holds one frame.
        let scene = scene_for(VideoId::Rs);
        let c = ingest_video_with(
            &scene,
            &SasConfig::tiny_for_tests(),
            9.0 / 30.0,
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(c.segment_count(), 2);
        assert_eq!(c.try_original_segment(1).unwrap().frames.len(), 1);
        for cluster in c.clusters_in_segment(1) {
            let stream = c.fov_stream(1, cluster).unwrap();
            let (data, meta) = c.read_fov(stream).unwrap();
            assert_eq!(data.frames.len(), 1);
            assert_eq!(meta.len(), 1);
        }
    }

    #[test]
    fn k_exceeding_point_count_is_clamped_not_fatal() {
        // One object in RS segments fewer points than max_clusters asks
        // for; the clamp inside k-means must keep ingest alive.
        let scene = scene_for(VideoId::Rs);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.max_clusters = 16;
        let c = ingest_video_with(&scene, &cfg, 1.0, &IngestOptions::default()).unwrap();
        assert!(c.degraded_segments().is_empty());
        assert!(!c.clusters_in_segment(0).is_empty());
    }

    #[test]
    fn out_of_range_reads_are_none_not_panics() {
        let c = tiny_catalog(VideoId::Rs, 1.0);
        assert!(c.try_original_segment(10_000).is_none());
        assert_eq!(c.original_target_bytes(10_000), None);
        let bogus = FovStream {
            segment_index: 0,
            cluster: 0,
            members: 1,
            data: RecordId::dangling(),
            meta: RecordId::dangling(),
        };
        assert!(c.read_fov(&bogus).is_none());
        assert_eq!(c.fov_target_bytes(&bogus), 0);
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use crate::config::SasConfig;
    use evr_video::library::{scene_for, VideoId};

    #[test]
    fn compaction_reclaims_dropped_streams_and_preserves_reads() {
        let cfg = SasConfig::tiny_for_tests();
        let full =
            ingest_video_with(&scene_for(VideoId::Rhino), &cfg, 1.0, &IngestOptions::default())
                .expect("tiny config ingests");
        let mut reduced = full.with_utilization(0.5).expect("0.5 is below the ingested 1.0");
        let live_bytes = reduced.total_fov_target_bytes();
        let reclaimed = reduced.compact();
        assert!(reclaimed > 0, "something should have been dropped");
        // Accounting unchanged (it was index-driven already)...
        assert_eq!(reduced.total_fov_target_bytes(), live_bytes);
        // ...and every surviving stream still reads consistently.
        for seg in 0..reduced.segment_count() {
            for cluster in reduced.clusters_in_segment(seg) {
                let stream = reduced.fov_stream(seg, cluster).unwrap();
                let (data, meta) = reduced.read_fov(stream).unwrap();
                assert_eq!(data.frames.len(), meta.len());
            }
        }
        // The log now holds exactly the indexed bytes.
        let mut indexed = 0u64;
        for seg in 0..reduced.segment_count() {
            for cluster in reduced.clusters_in_segment(seg) {
                let stream = reduced.fov_stream(seg, cluster).unwrap();
                indexed += reduced.fov_log.record_bytes(stream.data).unwrap();
            }
        }
        assert_eq!(indexed, reduced.fov_log.total_bytes());
    }

    #[test]
    fn utilization_outside_the_ingested_range_is_an_error() {
        let cfg = SasConfig::tiny_for_tests();
        let full =
            ingest_video_with(&scene_for(VideoId::Rhino), &cfg, 1.0, &IngestOptions::default())
                .expect("tiny config ingests");
        let refused = |c: &SasCatalog, u: f64| {
            matches!(c.with_utilization(u), Err(IngestError::InvalidConfig(_)))
        };
        for bad in [f64::NAN, -0.1, 1.5] {
            assert!(refused(&full, bad), "{bad}");
        }
        let half = full.with_utilization(0.5).expect("below the ingested 1.0");
        assert!(refused(&half, 0.75), "above the ingested 0.5");
        assert!(!refused(&half, 0.5));
    }

    #[test]
    fn compacting_a_full_catalog_is_a_noop() {
        let cfg = SasConfig::tiny_for_tests();
        let mut full =
            ingest_video_with(&scene_for(VideoId::Rs), &cfg, 1.0, &IngestOptions::default())
                .expect("tiny config ingests");
        assert_eq!(full.compact(), 0);
    }
}
