//! The per-user playback simulation.
//!
//! One [`PlaybackSession::run`] replays a head trace against an ingested
//! video, frame by frame, reproducing the client control flow of the
//! paper's Fig. 4: fetch → decode → FOV check → (PT on GPU or PTE, or
//! direct display) → display, while tagging every joule into an
//! [`EnergyLedger`].
//!
//! The control flow itself lives in one staged segment pipeline
//! (`plan → fetch → decode/render → account`): `run` and
//! [`PlaybackSession::run_resilient`] differ only in how its fetches
//! reach the server, over a clean link or under injected faults.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use evr_energy::{DeviceParams, EnergyLedger};
use evr_faults::FaultSetup;
use evr_obs::{Observer, TraceCtx};
use evr_pte::{FrameStats, GpuModel, Pte, PteConfig};
use evr_sas::SasConfig;
use evr_sas::SasServer;
use evr_sas::TiledRateCatalog;
use evr_trace::HeadTrace;
use evr_video::codec::EncodedFrame;

use crate::network::NetworkModel;
use crate::pipeline::{CleanTransport, FaultedTransport, SegmentPipeline, SessionMetrics};

/// How the client picks which FOV video to request at a segment boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Request the cluster nearest the *current* head pose (the paper's
    /// deployed behaviour, §5.3).
    #[default]
    CurrentPose,
    /// Extrapolate the head pose half a segment ahead from its recent
    /// angular velocity and select for the predicted pose — the
    /// lightweight client-side prediction the paper names as future work
    /// (§8.2: "combining head movement prediction with SAS would further
    /// improve the bandwidth efficiency").
    LinearPrediction {
        /// How far ahead to extrapolate, seconds.
        lookahead_s: f64,
    },
}

/// Which hardware performs on-device projective transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Renderer {
    /// Texture mapping on the mobile GPU (today's path).
    Gpu,
    /// The PTE accelerator (HAR).
    Pte,
}

/// Where content comes from (paper §8.1's three use-cases, plus the
/// no-SAS streaming baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentPath {
    /// Online streaming through SAS: FOV videos with original fallback.
    OnlineSas,
    /// Online streaming of the original video only (the paper's baseline).
    OnlineBaseline,
    /// Live streaming: original video, no server pre-processing possible.
    Live,
    /// Offline playback from local storage: no network at all.
    Offline,
}

impl ContentPath {
    /// Whether content flows over the radio (everything but offline).
    pub fn uses_network(self) -> bool {
        !matches!(self, ContentPath::Offline)
    }

    /// Whether the client requests FOV videos from a SAS server.
    pub fn uses_sas(self) -> bool {
        matches!(self, ContentPath::OnlineSas)
    }
}

/// Configuration of one playback session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Content source.
    pub path: ContentPath,
    /// PT hardware for non-hit frames.
    pub renderer: Renderer,
    /// SAS configuration (supplies the analysis/target scale model).
    pub sas: SasConfig,
    /// Device energy parameters.
    pub device: DeviceParams,
    /// GPU model (used when `renderer` is [`Renderer::Gpu`]).
    pub gpu: GpuModel,
    /// PTE configuration (used when `renderer` is [`Renderer::Pte`]).
    pub pte: PteConfig,
    /// Link model (ignored for [`ContentPath::Offline`]).
    pub network: NetworkModel,
    /// Oracle head-motion prediction: the server always pre-rendered the
    /// right view, so every FOV check hits. Models the perfect-HMP
    /// systems of the paper's §8.5 comparison (the HMP inference energy
    /// itself is accounted by the experiment driver).
    pub oracle_hits: bool,
    /// FOV-video selection policy at segment boundaries.
    pub selection: SelectionPolicy,
}

impl SessionConfig {
    /// Creates a configuration with default device/GPU/PTE/link models.
    pub fn new(path: ContentPath, renderer: Renderer, sas: SasConfig) -> Self {
        SessionConfig {
            path,
            renderer,
            sas,
            device: DeviceParams::default(),
            gpu: GpuModel::default(),
            pte: PteConfig::prototype(),
            network: NetworkModel::default(),
            oracle_hits: false,
            selection: SelectionPolicy::CurrentPose,
        }
    }
}

/// What the resilience state machine did during one run. All zeros on a
/// clean run (and identically zero for [`FaultSetup::none`], which the
/// workspace's parity tests assert).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Request re-attempts after a failure.
    pub retries: u64,
    /// Request timeouts (outages, drops, dead links, slow transfers).
    pub timeouts: u64,
    /// Segments that could not be served at full quality (lower-rung or
    /// frozen).
    pub degraded_segments: u64,
    /// Frames played from the degraded lower-bitrate rung.
    pub degraded_frames: u64,
    /// Frames frozen (last image repeated) because every ladder rung
    /// failed.
    pub frozen_frames: u64,
    /// Segments whose FOV video arrived corrupt.
    pub corrupt_segments: u64,
    /// Segments the serving front shed to the low-rung original under
    /// load (one more ladder rung, not a failure).
    pub shed_segments: u64,
    /// Segments whose FOV request got no front response at all (shard
    /// outage or open circuit breaker); the ladder descends normally.
    pub front_unavailable_segments: u64,
    /// Total time spent in backoff waits, seconds.
    pub backoff_time_s: f64,
    /// Total playback stall from faults (timeouts + backoff + late
    /// deliveries), seconds; excludes the clean path's FOV-miss
    /// rebuffering, which stays in `rebuffer_time_s`.
    pub stall_time_s: f64,
}

impl FaultSummary {
    /// Folds `other`'s counters and stall clocks into this summary.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.degraded_segments += other.degraded_segments;
        self.degraded_frames += other.degraded_frames;
        self.frozen_frames += other.frozen_frames;
        self.corrupt_segments += other.corrupt_segments;
        self.shed_segments += other.shed_segments;
        self.front_unavailable_segments += other.front_unavailable_segments;
        self.backoff_time_s += other.backoff_time_s;
        self.stall_time_s += other.stall_time_s;
    }
}

/// Results of one playback session.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackReport {
    /// Energy by component and activity.
    pub ledger: EnergyLedger,
    /// Frames presented.
    pub frames_total: u64,
    /// FOV-check hits (SAS path only).
    pub fov_hits: u64,
    /// FOV-check misses (SAS path only).
    pub fov_misses: u64,
    /// Frames rendered through the on-device PT fallback.
    pub fallback_frames: u64,
    /// Mid-segment fallback fetches.
    pub rebuffer_events: u64,
    /// Total rendering pause from rebuffering, seconds.
    pub rebuffer_time_s: f64,
    /// Bytes received over the network (target scale).
    pub bytes_received: u64,
    /// Media duration, seconds.
    pub duration_s: f64,
    /// Fault-handling summary (all zeros on a clean run).
    pub faults: FaultSummary,
}

/// `num / den`, or zero (not NaN) when the denominator is zero — the
/// shared guard behind every report fraction.
fn fraction(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl PlaybackReport {
    /// An all-zero report: the identity element of
    /// [`PlaybackReport::merge`].
    pub fn empty() -> Self {
        PlaybackReport {
            ledger: EnergyLedger::new(),
            frames_total: 0,
            fov_hits: 0,
            fov_misses: 0,
            fallback_frames: 0,
            rebuffer_events: 0,
            rebuffer_time_s: 0.0,
            bytes_received: 0,
            duration_s: 0.0,
            faults: FaultSummary::default(),
        }
    }

    /// Folds `other` into this report: ledgers, counters and clocks sum,
    /// and the merged duration covers both sessions so the fraction
    /// accessors stay time-weighted. The fleet runner folds per-user
    /// reports in ascending user order, which keeps the f64 sums
    /// byte-identical for any worker count.
    pub fn merge(&mut self, other: &PlaybackReport) {
        self.ledger.merge(&other.ledger);
        self.frames_total += other.frames_total;
        self.fov_hits += other.fov_hits;
        self.fov_misses += other.fov_misses;
        self.fallback_frames += other.fallback_frames;
        self.rebuffer_events += other.rebuffer_events;
        self.rebuffer_time_s += other.rebuffer_time_s;
        self.bytes_received += other.bytes_received;
        self.duration_s += other.duration_s;
        if self.duration_s > 0.0 {
            self.ledger.set_duration(self.duration_s);
        }
        self.faults.merge(&other.faults);
    }

    /// FOV-miss rate over checked frames (0 when SAS was not used).
    pub fn miss_rate(&self) -> f64 {
        fraction(self.fov_misses as f64, (self.fov_hits + self.fov_misses) as f64)
    }

    /// Fraction of frames that could not be served from an FOV video —
    /// the quantity the paper reports as the "FOV-miss rate" (§8.2,
    /// 5.3%–12.0%): once a segment misses, its remaining frames play from
    /// the original stream and count as missed too.
    pub fn fov_miss_fraction(&self) -> f64 {
        fraction(self.fallback_frames as f64, self.frames_total as f64)
    }

    /// FPS degradation: the fraction of presentation time lost to
    /// rebuffer pauses (the paper's Fig. 13 left axis, ≈1%). Zero (not
    /// NaN) for an empty session.
    pub fn fps_drop_fraction(&self) -> f64 {
        fraction(self.rebuffer_time_s, self.duration_s)
    }

    /// Fraction of frames served below full quality (lower rung or
    /// frozen) by the degradation ladder.
    pub fn degraded_fraction(&self) -> f64 {
        fraction(
            (self.faults.degraded_frames + self.faults.frozen_frames) as f64,
            self.frames_total as f64,
        )
    }

    /// Fraction of frames frozen outright.
    pub fn frozen_fraction(&self) -> f64 {
        fraction(self.faults.frozen_frames as f64, self.frames_total as f64)
    }

    /// Fraction of presentation time lost to *all* pauses: FOV-miss
    /// rebuffering plus fault stalls (timeouts, backoff, late segments).
    pub fn stall_fraction(&self) -> f64 {
        fraction(self.rebuffer_time_s + self.faults.stall_time_s, self.duration_s)
    }
}

/// The playback simulator.
#[derive(Debug, Clone)]
pub struct PlaybackSession {
    pub(crate) cfg: SessionConfig,
    /// Pre-analysed PTE frame cost (orientation dependence of the memory
    /// pattern is second-order; one representative analysis is reused).
    pub(crate) pte_frame: FrameStats,
    pub(crate) observer: Observer,
    pub(crate) metrics: SessionMetrics,
    /// Per-tile multi-rate catalog: when attached, clean and resilient
    /// runs play tiled (the `T`/`T+H` variants) instead of through the
    /// whole-frame ladder.
    pub(crate) tiles: Option<Arc<TiledRateCatalog>>,
}

impl PlaybackSession {
    /// Creates a session, pre-analysing the PTE cost for the configured
    /// source/viewport geometry.
    pub fn new(cfg: SessionConfig) -> Self {
        Self::with_observer(cfg, Observer::noop())
    }

    /// Like [`PlaybackSession::new`], but every run records frame, stall
    /// and stage timings into `observer` as they happen, stage intervals
    /// into its timeline when one is attached, and at its end adds the
    /// report's totals into the playback counters and the per-component
    /// energy gauges.
    pub fn with_observer(cfg: SessionConfig, observer: Observer) -> Self {
        let (sw, sh) = cfg.sas.target_src;
        let pte = Pte::new(cfg.pte);
        let pte_frame = pte.analyze_frame_strided(sw, sh, evr_math::EulerAngles::default(), 4);
        let metrics = SessionMetrics::resolve(&observer);
        PlaybackSession { cfg, pte_frame, observer, metrics, tiles: None }
    }

    /// Attaches a per-tile multi-rate catalog: every subsequent
    /// [`PlaybackSession::run`]/[`PlaybackSession::run_resilient`]
    /// plays tiled, fetching the spherically-weighted per-tile rung
    /// selection instead of walking the whole-frame degradation ladder.
    pub fn with_tiles(mut self, tiles: Arc<TiledRateCatalog>) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// The attached multi-rate tile catalog, if any.
    pub fn tiles(&self) -> Option<&Arc<TiledRateCatalog>> {
        self.tiles.as_ref()
    }

    /// Replaces the session's observer (a no-op observer detaches all
    /// instrumentation).
    pub fn set_observer(&mut self, observer: Observer) {
        self.metrics = SessionMetrics::resolve(&observer);
        self.observer = observer;
    }

    /// The session's observer (a no-op handle unless one was attached).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// The configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Replays `trace` against `server`'s video over a fault-free link:
    /// every request is served at once.
    pub fn run(&self, server: &SasServer, trace: &HeadTrace) -> PlaybackReport {
        self.run_traced(server, trace, TraceCtx::anonymous())
    }

    /// Like [`PlaybackSession::run`], with a caller-supplied
    /// [`TraceCtx`] stamped on every timeline interval the run records.
    /// `FleetRunner` passes the user id through here so profiles
    /// attribute work to users; the report is identical to `run`'s.
    pub fn run_traced(
        &self,
        server: &SasServer,
        trace: &HeadTrace,
        ctx: TraceCtx,
    ) -> PlaybackReport {
        SegmentPipeline::new(self, server, trace, CleanTransport, ctx).run()
    }

    /// Replays `trace` against `server`'s video under injected faults.
    ///
    /// Per segment the client walks a graceful-degradation ladder: FOV
    /// video → full-quality original → lower-bitrate rung → frame
    /// freeze. Each rung is fetched under the setup's [`RetryPolicy`]:
    /// a request times out on server outages, dropped requests, dead
    /// links and transfers slower than the deadline, and is re-attempted
    /// after an exponentially growing, deterministically jittered
    /// backoff wait. Every retry, timeout, backoff and degradation is
    /// tagged into the ledger under [`Activity::Resilience`] and counted
    /// into the `evr_fault_*` / degradation metrics.
    ///
    /// A clean `setup` — and any setup on the network-free offline
    /// path — delegates to [`PlaybackSession::run`], so the output is
    /// bit-identical to an un-faulted session.
    ///
    /// [`RetryPolicy`]: evr_faults::RetryPolicy
    /// [`Activity::Resilience`]: evr_energy::Activity::Resilience
    pub fn run_resilient(
        &self,
        server: &SasServer,
        trace: &HeadTrace,
        setup: &FaultSetup,
    ) -> PlaybackReport {
        self.run_resilient_traced(server, trace, setup, TraceCtx::anonymous())
    }

    /// Like [`PlaybackSession::run_resilient`], with a caller-supplied
    /// [`TraceCtx`] stamped on every timeline interval (see
    /// [`PlaybackSession::run_traced`]).
    pub fn run_resilient_traced(
        &self,
        server: &SasServer,
        trace: &HeadTrace,
        setup: &FaultSetup,
        ctx: TraceCtx,
    ) -> PlaybackReport {
        if setup.is_clean() || !self.cfg.path.uses_network() {
            return self.run_traced(server, trace, ctx);
        }
        SegmentPipeline::new(self, server, trace, FaultedTransport::new(setup), ctx).run()
    }
}

pub(crate) fn frame_wire_bytes(frame: &EncodedFrame, scale: f64) -> u64 {
    (frame.payload_bytes() as f64 * scale) as u64 + (frame.bytes - frame.payload_bytes())
}

/// `secs` seconds of `scene` ingested under `sas`: the catalog the
/// session tests play against.
#[cfg(test)]
fn ingest(scene: &evr_video::Scene, sas: &SasConfig, secs: f64) -> evr_sas::SasCatalog {
    evr_sas::ingest_video_with(scene, sas, secs, &evr_sas::IngestOptions::default())
        .expect("valid config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_energy::{Activity, Component};
    use evr_trace::behavior::{generate_user_trace, params_for};
    use evr_video::library::{scene_for, VideoId};

    fn setup(video: VideoId, secs: f64) -> (SasServer, HeadTrace) {
        let scene = scene_for(video);
        let server = SasServer::new(ingest(&scene, &SasConfig::tiny_for_tests(), secs));
        let trace = generate_user_trace(&scene, &params_for(video), 3, secs, 30.0);
        (server, trace)
    }

    fn run(
        path: ContentPath,
        renderer: Renderer,
        server: &SasServer,
        trace: &HeadTrace,
    ) -> PlaybackReport {
        let cfg = SessionConfig::new(path, renderer, SasConfig::tiny_for_tests());
        PlaybackSession::new(cfg).run(server, trace)
    }

    #[test]
    fn baseline_renders_every_frame_on_gpu() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let r = run(ContentPath::OnlineBaseline, Renderer::Gpu, &server, &trace);
        assert_eq!(r.frames_total, 30);
        assert_eq!(r.fallback_frames, 30);
        assert_eq!(r.fov_hits + r.fov_misses, 0);
        assert!(r.ledger.get(Component::Compute, Activity::ProjectiveTransform) > 0.0);
    }

    #[test]
    fn sas_hits_avoid_pt_entirely() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let r = run(ContentPath::OnlineSas, Renderer::Gpu, &server, &trace);
        assert!(r.fov_hits > 0, "expected some hits");
        // PT energy strictly below baseline.
        let base = run(ContentPath::OnlineBaseline, Renderer::Gpu, &server, &trace);
        assert!(
            r.ledger.activity_total(Activity::ProjectiveTransform)
                < base.ledger.activity_total(Activity::ProjectiveTransform)
        );
    }

    #[test]
    fn pte_renderer_uses_less_pt_energy_than_gpu() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let gpu = run(ContentPath::OnlineBaseline, Renderer::Gpu, &server, &trace);
        let pte = run(ContentPath::OnlineBaseline, Renderer::Pte, &server, &trace);
        let pt = |r: &PlaybackReport| r.ledger.activity_total(Activity::ProjectiveTransform);
        assert!(pt(&pte) < pt(&gpu) / 3.0, "pte {} gpu {}", pt(&pte), pt(&gpu));
        // And less total device energy.
        assert!(pte.ledger.total() < gpu.ledger.total());
    }

    #[test]
    fn offline_has_no_network_energy() {
        let (server, trace) = setup(VideoId::Timelapse, 1.0);
        let r = run(ContentPath::Offline, Renderer::Pte, &server, &trace);
        assert_eq!(r.ledger.component_total(Component::Network), 0.0);
        assert!(r.ledger.component_total(Component::Storage) > 0.0);
        assert_eq!(r.bytes_received, 0);
    }

    #[test]
    fn sas_reduces_received_bytes_for_tracking_user() {
        // A user who stares at the herd never misses; SAS then streams
        // only the (smaller) FOV videos — the Fig. 13 bandwidth effect.
        let scene = scene_for(VideoId::Rhino);
        let server = SasServer::new(ingest(&scene, &SasConfig::tiny_for_tests(), 2.0));
        let herd = scene.objects()[0].position(0.0);
        let s = evr_math::SphericalCoord::from_vector(herd).unwrap();
        let pose = evr_math::EulerAngles::new(s.lon, s.lat, evr_math::Radians(0.0));
        let samples: Vec<_> =
            (0..61).map(|i| evr_trace::PoseSample { t: i as f64 / 30.0, pose }).collect();
        let trace = HeadTrace::from_samples(samples);

        let sas = run(ContentPath::OnlineSas, Renderer::Pte, &server, &trace);
        let base = run(ContentPath::OnlineBaseline, Renderer::Pte, &server, &trace);
        // Cluster centroids drift segment to segment (detector noise,
        // k-means variation); a staring user still hits almost always.
        assert!(
            sas.fov_miss_fraction() < 0.4,
            "staring user misses {:.0}% of frames",
            100.0 * sas.fov_miss_fraction()
        );
        assert!(
            sas.bytes_received < base.bytes_received,
            "sas {} baseline {}",
            sas.bytes_received,
            base.bytes_received
        );
    }

    #[test]
    fn misses_cause_rebuffering_and_fallback() {
        // Force misses by streaming with zero margin and a twitchy user.
        let scene = scene_for(VideoId::Rs);
        let mut sas_cfg = SasConfig::tiny_for_tests();
        sas_cfg.fov_margin = evr_math::Degrees(0.5);
        let server = SasServer::new(ingest(&scene, &sas_cfg, 2.0));
        let trace = generate_user_trace(&scene, &params_for(VideoId::Rs), 9, 2.0, 30.0);
        let cfg = SessionConfig::new(ContentPath::OnlineSas, Renderer::Gpu, sas_cfg);
        let r = PlaybackSession::new(cfg).run(&server, &trace);
        assert!(r.fov_misses > 0);
        assert_eq!(r.rebuffer_events > 0, r.fov_misses > 0);
        assert!(r.rebuffer_time_s > 0.0);
        assert!(r.fps_drop_fraction() < 0.2);
        assert!(r.fallback_frames > 0);
    }

    #[test]
    fn observed_run_mirrors_report_counters() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let sas = SasConfig::tiny_for_tests();
        let tiles =
            Arc::new(evr_sas::ingest_tiled_rates_with(&scene_for(VideoId::Rhino), &sas, 1.0, 0));
        let session = |path| PlaybackSession::new(SessionConfig::new(path, Renderer::Pte, sas));
        let whole = session(ContentPath::OnlineSas);
        let tiled = session(ContentPath::OnlineBaseline).with_tiles(tiles);
        for (label, mut session) in [("whole-frame S", whole), ("tiled T", tiled)] {
            let obs = evr_obs::Observer::enabled();
            session.set_observer(obs.clone());
            let r = session.run(&server, &trace);

            use evr_obs::names;
            assert_eq!(obs.counter(names::FRAMES).get(), r.frames_total, "{label}");
            assert_eq!(obs.counter(names::FOV_HITS).get(), r.fov_hits, "{label}");
            assert_eq!(obs.counter(names::FOV_MISSES).get(), r.fov_misses, "{label}");
            assert_eq!(obs.counter(names::FALLBACK_FRAMES).get(), r.fallback_frames, "{label}");
            assert_eq!(obs.counter(names::REBUFFER_EVENTS).get(), r.rebuffer_events, "{label}");
            assert_eq!(obs.counter(names::FETCH_BYTES).get(), r.bytes_received, "{label}");
            assert!(
                (obs.gauge(names::REBUFFER_SECONDS).get() - r.rebuffer_time_s).abs() < 1e-12,
                "{label}"
            );
            // Frame latency histogram saw every frame.
            let hist = obs.histogram(names::FRAME_SECONDS, &evr_obs::LATENCY_BOUNDS_S);
            assert_eq!(hist.snapshot().count, r.frames_total, "{label}");
            // Per-stage pipeline timings cover every segment.
            let segments = obs.counter(names::SEGMENTS).get();
            for stage in ["plan", "fetch", "render", "account"] {
                let h = obs
                    .histogram(&names::pipeline_stage_seconds(stage), &evr_obs::LATENCY_BOUNDS_S)
                    .snapshot();
                assert_eq!(h.count, segments, "{label}: stage {stage}");
            }
            // PTE renderer: every fallback frame went through the engine mirror.
            assert_eq!(obs.counter(names::PT_PTE_FRAMES).get(), r.fallback_frames, "{label}");
            assert_eq!(obs.counter(names::PT_GPU_FRAMES).get(), 0, "{label}");
            if r.fallback_frames > 0 {
                assert!(obs.counter(names::PTE_ACTIVE_CYCLES).get() > 0, "{label}");
            }
            // Energy gauges mirror the ledger per component.
            for c in Component::ALL {
                let gauge = obs.gauge(&names::energy_gauge(&c.to_string()));
                assert!(
                    (gauge.get() - r.ledger.component_total(c)).abs() < 1e-9,
                    "{label} {c}: gauge {} vs ledger {}",
                    gauge.get(),
                    r.ledger.component_total(c)
                );
            }
        }
    }

    #[test]
    fn observed_gpu_run_counts_every_fallback_frame_on_the_gpu() {
        use evr_obs::names;
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        for path in [ContentPath::OnlineBaseline, ContentPath::OnlineSas] {
            let obs = evr_obs::Observer::enabled();
            let cfg = SessionConfig::new(path, Renderer::Gpu, SasConfig::tiny_for_tests());
            let r = PlaybackSession::with_observer(cfg, obs.clone()).run(&server, &trace);
            assert_eq!(obs.counter(names::PT_GPU_FRAMES).get(), r.fallback_frames, "{path:?}");
            assert_eq!(obs.counter(names::PT_PTE_FRAMES).get(), 0, "{path:?}");
            assert_eq!(obs.counter(names::PTE_FRAMES).get(), 0, "{path:?}");
        }
    }

    #[test]
    fn observed_pte_run_counts_exact_engine_cycles() {
        use evr_obs::names;
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let obs = evr_obs::Observer::enabled();
        let cfg = SessionConfig::new(
            ContentPath::OnlineBaseline,
            Renderer::Pte,
            SasConfig::tiny_for_tests(),
        );
        let session = PlaybackSession::with_observer(cfg, obs.clone());
        let r = session.run(&server, &trace);
        let frames = r.fallback_frames;
        assert_eq!(frames, r.frames_total, "the baseline projects every frame");
        // Every PT frame costs the session's representative frame stats.
        let s = &session.pte_frame;
        assert!(s.active_cycles > 0 && s.pmem_misses > 0);
        assert_eq!(obs.counter(names::PT_PTE_FRAMES).get(), frames);
        assert_eq!(obs.counter(names::PT_GPU_FRAMES).get(), 0);
        assert_eq!(obs.counter(names::PTE_FRAMES).get(), frames);
        assert_eq!(obs.counter(names::PTE_ACTIVE_CYCLES).get(), s.active_cycles * frames);
        assert_eq!(obs.counter(names::PTE_STALL_CYCLES).get(), s.stall_cycles * frames);
        assert_eq!(obs.counter(names::PTE_PMEM_HITS).get(), s.pmem_hits * frames);
        assert_eq!(obs.counter(names::PTE_PMEM_MISSES).get(), s.pmem_misses * frames);
    }

    #[test]
    fn energy_gauges_equal_the_ledger_and_accumulate_over_runs() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let cfg =
            SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, SasConfig::tiny_for_tests());
        let obs = evr_obs::Observer::enabled();
        let session = PlaybackSession::with_observer(cfg, obs.clone());
        let gauge = |c: Component| obs.gauge(&evr_obs::names::energy_gauge(&c.to_string())).get();
        let first = session.run(&server, &trace);
        for c in Component::ALL {
            assert_eq!(gauge(c), first.ledger.component_total(c), "{c} after one run");
        }
        let second = session.run_resilient(
            &server,
            &trace,
            &evr_faults::FaultSetup::none().with_plan(
                evr_faults::FaultPlan::none()
                    .with(evr_faults::FaultEvent::SegmentCorruption { segment: 0 }),
            ),
        );
        assert_ne!(first.ledger, second.ledger);
        for c in Component::ALL {
            let want = first.ledger.component_total(c) + second.ledger.component_total(c);
            assert!((gauge(c) - want).abs() < 1e-12, "{c}: gauge {} vs ledgers {want}", gauge(c));
        }
        // An unobserved session registers nothing.
        let silent = PlaybackSession::new(cfg);
        let _ = silent.run(&server, &trace);
        assert!(silent.observer().metrics().is_empty());
    }

    #[test]
    fn unobserved_run_matches_observed_run() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let cfg =
            SessionConfig::new(ContentPath::OnlineSas, Renderer::Gpu, SasConfig::tiny_for_tests());
        let silent = PlaybackSession::new(cfg).run(&server, &trace);
        let observed =
            PlaybackSession::with_observer(cfg, evr_obs::Observer::enabled()).run(&server, &trace);
        assert_eq!(silent, observed);
    }

    #[test]
    fn report_duration_matches_frames() {
        let (server, trace) = setup(VideoId::Paris, 1.0);
        let r = run(ContentPath::Live, Renderer::Pte, &server, &trace);
        assert!((r.duration_s - r.frames_total as f64 / 30.0).abs() < 1e-9);
        assert!(r.ledger.total_power() > 1.0, "device draws watts");
    }

    #[test]
    fn empty_report_fractions_are_zero_not_nan() {
        let r = PlaybackReport::empty();
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.fov_miss_fraction(), 0.0);
        assert_eq!(r.fps_drop_fraction(), 0.0);
        assert_eq!(r.stall_fraction(), 0.0);
        assert_eq!(r.degraded_fraction(), 0.0);
        assert_eq!(r.frozen_fraction(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let r = run(ContentPath::OnlineSas, Renderer::Pte, &server, &trace);
        // Identity on the right: r ⊕ 0 = r.
        let mut right = r.clone();
        right.merge(&PlaybackReport::empty());
        assert_eq!(right, r);
        // Identity on the left: 0 ⊕ r = r.
        let mut left = PlaybackReport::empty();
        left.merge(&r);
        assert_eq!(left, r);
    }

    #[test]
    fn asymmetric_merge_sums_counters_and_time_weights_fractions() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let a = run(ContentPath::OnlineSas, Renderer::Pte, &server, &trace);
        let b = run(ContentPath::OnlineBaseline, Renderer::Gpu, &server, &trace);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.frames_total, a.frames_total + b.frames_total);
        assert_eq!(merged.fov_hits, a.fov_hits + b.fov_hits);
        assert_eq!(merged.fallback_frames, a.fallback_frames + b.fallback_frames);
        assert_eq!(merged.bytes_received, a.bytes_received + b.bytes_received);
        assert!((merged.duration_s - (a.duration_s + b.duration_s)).abs() < 1e-12);
        assert!(
            (merged.ledger.total() - (a.ledger.total() + b.ledger.total())).abs() < 1e-9,
            "ledger sums"
        );
        assert!((merged.ledger.duration() - merged.duration_s).abs() < 1e-12);
        // The merged fraction is frame-weighted, not a mean of means.
        let expect = (a.fallback_frames + b.fallback_frames) as f64
            / (a.frames_total + b.frames_total) as f64;
        assert!((merged.fov_miss_fraction() - expect).abs() < 1e-12);
        // Merging an empty report into an empty one stays empty and
        // NaN-free.
        let mut zero = PlaybackReport::empty();
        zero.merge(&PlaybackReport::empty());
        assert_eq!(zero, PlaybackReport::empty());
        assert_eq!(zero.stall_fraction(), 0.0);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use evr_energy::{Activity, Component};
    use evr_faults::{FaultEvent, FaultPlan, GilbertElliott, LinkProcess, RetryPolicy};
    use evr_obs::names;
    use evr_trace::behavior::{generate_user_trace, params_for};
    use evr_video::library::{scene_for, VideoId};

    fn setup(video: VideoId, secs: f64) -> (SasServer, HeadTrace) {
        let scene = scene_for(video);
        let server = SasServer::new(ingest(&scene, &SasConfig::tiny_for_tests(), secs));
        let trace = generate_user_trace(&scene, &params_for(video), 3, secs, 30.0);
        (server, trace)
    }

    fn session(path: ContentPath) -> PlaybackSession {
        PlaybackSession::new(SessionConfig::new(path, Renderer::Pte, SasConfig::tiny_for_tests()))
    }

    #[test]
    fn clean_setup_is_bit_identical_to_the_plain_run() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        for path in [ContentPath::OnlineSas, ContentPath::OnlineBaseline, ContentPath::Offline] {
            let s = session(path);
            let clean = s.run(&server, &trace);
            let resilient = s.run_resilient(&server, &trace, &evr_faults::FaultSetup::none());
            assert_eq!(clean, resilient, "{path:?}");
            assert_eq!(resilient.faults, FaultSummary::default());
        }
    }

    #[test]
    fn permanent_outage_freezes_every_segment() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let setup = evr_faults::FaultSetup::none().with_plan(
            FaultPlan::none().with(FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1e6 }),
        );
        let s = session(ContentPath::OnlineSas);
        let r = s.run_resilient(&server, &trace, &setup);
        assert_eq!(r.faults.frozen_frames, r.frames_total);
        assert_eq!(r.bytes_received, 0);
        assert!(r.faults.timeouts > 0 && r.faults.retries > 0);
        assert!(r.faults.stall_time_s > 0.0 && r.faults.backoff_time_s > 0.0);
        assert!(r.ledger.activity_total(Activity::Resilience) > 0.0);
        assert_eq!(r.frozen_fraction(), 1.0);
    }

    #[test]
    fn request_drop_is_recovered_by_one_retry() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let setup = evr_faults::FaultSetup::none()
            .with_plan(FaultPlan::none().with(FaultEvent::RequestDrop { segment: 0 }));
        let r = session(ContentPath::OnlineSas).run_resilient(&server, &trace, &setup);
        assert_eq!(r.faults.timeouts, 1);
        assert_eq!(r.faults.retries, 1);
        assert_eq!(r.faults.frozen_frames, 0);
        assert_eq!(r.faults.degraded_frames, 0);
        // The drop costs one timeout plus one backoff wait of stall.
        assert!(r.faults.stall_time_s >= 0.25, "stall {}", r.faults.stall_time_s);
    }

    #[test]
    fn corrupt_fov_segment_degrades_to_the_original() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let setup = evr_faults::FaultSetup::none()
            .with_plan(FaultPlan::none().with(FaultEvent::SegmentCorruption { segment: 0 }));
        let clean = session(ContentPath::OnlineSas).run(&server, &trace);
        let r = session(ContentPath::OnlineSas).run_resilient(&server, &trace, &setup);
        assert_eq!(r.faults.corrupt_segments, 1);
        // The corrupt transfer is paid for on top of the replacement.
        assert!(r.bytes_received > clean.bytes_received);
        assert!(r.ledger.activity_total(Activity::Resilience) > 0.0);
    }

    #[test]
    fn late_segment_stalls_without_degrading() {
        let (server, trace) = setup(VideoId::Rhino, 1.0);
        let setup = evr_faults::FaultSetup::none().with_plan(
            FaultPlan::none().with(FaultEvent::LateSegment { segment: 1, delay_s: 0.4 }),
        );
        let r = session(ContentPath::OnlineSas).run_resilient(&server, &trace, &setup);
        assert_eq!(r.faults.timeouts, 0);
        assert_eq!(r.faults.frozen_frames + r.faults.degraded_frames, 0);
        assert!((r.faults.stall_time_s - 0.4).abs() < 1e-9, "stall {}", r.faults.stall_time_s);
    }

    #[test]
    fn dead_link_without_a_plan_also_freezes() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let setup = evr_faults::FaultSetup::none().with_link(LinkProcess {
            profile: evr_faults::BandwidthProfile::constant(0.0),
            loss: GilbertElliott::clean(),
            rtt_s: 0.002,
        });
        let r = session(ContentPath::OnlineSas).run_resilient(&server, &trace, &setup);
        assert_eq!(r.faults.frozen_frames, r.frames_total);
        assert_eq!(r.bytes_received, 0);
    }

    #[test]
    fn same_seed_replays_identically_and_seeds_differ() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let bursty = |seed| {
            let mut setup = evr_faults::FaultSetup::seeded(seed).with_link(LinkProcess {
                profile: evr_faults::BandwidthProfile::constant(300e6),
                loss: GilbertElliott::bursty(0.4, 2.0, 0.6),
                rtt_s: 0.002,
            });
            setup.retry = RetryPolicy { timeout_s: 10.0, ..RetryPolicy::default() };
            session(ContentPath::OnlineSas).run_resilient(&server, &trace, &setup)
        };
        let a = bursty(7);
        assert_eq!(a, bursty(7));
        // Different seeds visit different loss states → different bytes
        // on the wire (almost surely, for this bursty channel).
        let b = bursty(8);
        let wire = |r: &PlaybackReport| r.ledger.get(Component::Network, Activity::NetworkRx);
        assert_ne!(wire(&a), wire(&b));
    }

    #[test]
    fn observed_resilient_run_mirrors_fault_counters() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let obs = evr_obs::Observer::enabled();
        let cfg =
            SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, SasConfig::tiny_for_tests());
        let s = PlaybackSession::with_observer(cfg, obs.clone());
        let setup = evr_faults::FaultSetup::none().with_plan(
            FaultPlan::none()
                .with(FaultEvent::ServerOutage { start_s: 0.0, duration_s: 0.6 })
                .with(FaultEvent::RequestDrop { segment: 3 }),
        );
        let r = s.run_resilient(&server, &trace, &setup);
        assert_eq!(obs.counter(names::FAULT_RETRIES).get(), r.faults.retries);
        assert_eq!(obs.counter(names::FAULT_TIMEOUTS).get(), r.faults.timeouts);
        assert_eq!(obs.counter(names::DEGRADED_FRAMES).get(), r.faults.degraded_frames);
        assert_eq!(obs.counter(names::FROZEN_FRAMES).get(), r.faults.frozen_frames);
        assert!((obs.gauge(names::BACKOFF_SECONDS).get() - r.faults.backoff_time_s).abs() < 1e-12);
        assert!(r.faults.timeouts > 0, "the outage must bite");
        let stalls =
            obs.histogram(names::FAULT_STALL_SECONDS, &crate::pipeline::STALL_BOUNDS_S).snapshot();
        assert!(stalls.count > 0);
        // The observed run is behaviourally identical to a silent one.
        let silent = PlaybackSession::new(cfg).run_resilient(&server, &trace, &setup);
        assert_eq!(silent, r);
    }

    #[test]
    fn observed_frozen_run_counts_every_segment() {
        let (server, trace) = setup(VideoId::Rs, 1.0);
        let obs = evr_obs::Observer::enabled();
        let cfg =
            SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, SasConfig::tiny_for_tests());
        let setup = evr_faults::FaultSetup::none().with_plan(
            FaultPlan::none().with(FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1e6 }),
        );
        let r =
            PlaybackSession::with_observer(cfg, obs.clone()).run_resilient(&server, &trace, &setup);
        let segments = server.catalog().segment_count() as u64;
        assert!(segments > 1);
        assert_eq!(r.faults.degraded_segments, segments, "every segment froze");
        assert_eq!(obs.counter(names::SEGMENTS).get(), segments);
        assert_eq!(obs.counter(names::FRAMES).get(), r.frames_total);
        assert_eq!(obs.counter(names::FROZEN_FRAMES).get(), r.frames_total);
        assert_eq!(obs.counter(names::FALLBACK_FRAMES).get(), 0);
    }
}

#[cfg(test)]
mod selection_tests {
    use super::*;
    use evr_trace::PoseSample;
    use evr_video::library::{scene_for, VideoId};

    /// A user sweeping steadily rightward at 30°/s: linear prediction
    /// should select the stream ahead of the sweep.
    fn sweeping_trace(secs: f64) -> HeadTrace {
        let samples = (0..=(secs * 30.0) as u64)
            .map(|i| {
                let t = i as f64 / 30.0;
                PoseSample {
                    t,
                    pose: evr_math::EulerAngles::from_degrees(t * 30.0 - 30.0, -8.0, 0.0),
                }
            })
            .collect();
        HeadTrace::from_samples(samples)
    }

    #[test]
    fn linear_prediction_does_not_hurt_a_sweeping_user() {
        let scene = scene_for(VideoId::Paris);
        let sas = SasConfig::tiny_for_tests();
        let server = SasServer::new(ingest(&scene, &sas, 2.0));
        let trace = sweeping_trace(2.0);

        let run = |selection: SelectionPolicy| {
            let mut cfg = SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, sas);
            cfg.selection = selection;
            PlaybackSession::new(cfg).run(&server, &trace)
        };
        let cur = run(SelectionPolicy::CurrentPose);
        let pred = run(SelectionPolicy::LinearPrediction { lookahead_s: 0.5 });
        assert!(
            pred.fov_miss_fraction() <= cur.fov_miss_fraction() + 1e-9,
            "pred {} vs cur {}",
            pred.fov_miss_fraction(),
            cur.fov_miss_fraction()
        );
    }

    #[test]
    fn prediction_with_zero_lookahead_equals_current_pose() {
        let scene = scene_for(VideoId::Rhino);
        let sas = SasConfig::tiny_for_tests();
        let server = SasServer::new(ingest(&scene, &sas, 1.0));
        let trace = sweeping_trace(1.0);
        let run = |selection: SelectionPolicy| {
            let mut cfg = SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, sas);
            cfg.selection = selection;
            PlaybackSession::new(cfg).run(&server, &trace)
        };
        assert_eq!(
            run(SelectionPolicy::CurrentPose),
            run(SelectionPolicy::LinearPrediction { lookahead_s: 0.0 })
        );
    }
}
