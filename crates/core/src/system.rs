//! System variants, use-cases and the end-to-end wiring.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, Mutex};

use evr_client::session::{ContentPath, PlaybackReport, PlaybackSession, Renderer, SessionConfig};
use evr_sas::{
    ingest_tiled_rates_with, ingest_video_with, FovPrerenderStore, IngestOptions, SasConfig,
    SasServer, TiledRateCatalog,
};
use evr_trace::behavior::{params_for, ObjectTracks};
use evr_trace::HeadTrace;
use evr_video::library::{scene_for, VideoId};
use evr_video::scene::Scene;

/// The EVR variants of the paper's §8.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Today's system: stream originals, PT on the GPU.
    Baseline,
    /// Semantic-aware streaming only (`S`): FOV videos, GPU fallback.
    S,
    /// Hardware-accelerated rendering only (`H`): originals, PTE.
    H,
    /// Both (`S+H`): FOV videos, PTE fallback.
    SPlusH,
    /// Tiled multi-rate streaming (`T`): the related-work tiling
    /// baseline promoted to a first-class variant — per-tile rate
    /// allocation against the link budget, PT on the GPU.
    T,
    /// Tiled multi-rate streaming with hardware-accelerated rendering
    /// (`T+H`): per-tile rate allocation, PTE fallback.
    TPlusH,
    /// §8.5 comparison: SAS with a perfect on-device DNN head-motion
    /// predictor (inference energy charged by the experiment driver).
    PerfectHmp,
    /// §8.5 upper bound: perfect prediction with zero overhead.
    IdealHmp,
}

impl Variant {
    /// The three EVR variants of Fig. 12, in plot order.
    pub const EVR: [Variant; 3] = [Variant::S, Variant::H, Variant::SPlusH];

    /// The tiled multi-rate variants, in plot order.
    pub const TILED: [Variant; 2] = [Variant::T, Variant::TPlusH];

    /// Whether this variant plays through the tiled multi-rate
    /// pipeline (and needs a [`evr_sas::TiledRateCatalog`] attached).
    pub fn is_tiled(self) -> bool {
        matches!(self, Variant::T | Variant::TPlusH)
    }

    fn session(self, use_case: UseCase, sas: SasConfig) -> SessionConfig {
        let (path, renderer, oracle) = match (use_case, self) {
            (UseCase::OnlineStreaming, Variant::Baseline) => {
                (ContentPath::OnlineBaseline, Renderer::Gpu, false)
            }
            (UseCase::OnlineStreaming, Variant::S) => {
                (ContentPath::OnlineSas, Renderer::Gpu, false)
            }
            (UseCase::OnlineStreaming, Variant::H) => {
                (ContentPath::OnlineBaseline, Renderer::Pte, false)
            }
            (UseCase::OnlineStreaming, Variant::SPlusH) => {
                (ContentPath::OnlineSas, Renderer::Pte, false)
            }
            // The tiled variants stream originals tile by tile (no SAS
            // pre-rendering); the multi-rate catalog attached by
            // `EvrSystem::session_for` routes playback through the
            // tiled pipeline.
            (UseCase::OnlineStreaming, Variant::T) => {
                (ContentPath::OnlineBaseline, Renderer::Gpu, false)
            }
            (UseCase::OnlineStreaming, Variant::TPlusH) => {
                (ContentPath::OnlineBaseline, Renderer::Pte, false)
            }
            (UseCase::OnlineStreaming, Variant::PerfectHmp | Variant::IdealHmp) => {
                (ContentPath::OnlineSas, Renderer::Pte, true)
            }
            (UseCase::LiveStreaming, v) => (
                ContentPath::Live,
                if v == Variant::H { Renderer::Pte } else { Renderer::Gpu },
                false,
            ),
            (UseCase::OfflinePlayback, v) => (
                ContentPath::Offline,
                if v == Variant::H { Renderer::Pte } else { Renderer::Gpu },
                false,
            ),
        };
        let mut cfg = SessionConfig::new(path, renderer, sas);
        cfg.oracle_hits = oracle;
        cfg
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Variant::Baseline => "Baseline",
            Variant::S => "S",
            Variant::H => "H",
            Variant::SPlusH => "S+H",
            Variant::T => "T",
            Variant::TPlusH => "T+H",
            Variant::PerfectHmp => "Perfect HMP",
            Variant::IdealHmp => "Perfect HMP w/ No Overhead",
        };
        f.write_str(s)
    }
}

/// The three VR use-cases of the paper's evaluation (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UseCase {
    /// Content streamed from a SAS-capable server: all variants apply.
    OnlineStreaming,
    /// Broadcast with real-time constraints: no server pre-processing,
    /// only `H` applies.
    LiveStreaming,
    /// Playback from local storage: only `H` applies.
    OfflinePlayback,
}

impl UseCase {
    /// Variants the paper evaluates for this use-case.
    pub fn applicable_variants(self) -> &'static [Variant] {
        match self {
            UseCase::OnlineStreaming => &[Variant::S, Variant::H, Variant::SPlusH],
            UseCase::LiveStreaming | UseCase::OfflinePlayback => &[Variant::H],
        }
    }
}

impl fmt::Display for UseCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UseCase::OnlineStreaming => "online-streaming",
            UseCase::LiveStreaming => "live-streaming",
            UseCase::OfflinePlayback => "offline-playback",
        };
        f.write_str(s)
    }
}

/// One video ingested and ready to serve any variant/use-case/user.
#[derive(Debug)]
pub struct EvrSystem {
    video: VideoId,
    scene: Scene,
    server: SasServer,
    sas: SasConfig,
    duration_s: f64,
    observer: evr_obs::Observer,
    /// Per-tile multi-rate catalog for the `T`/`T+H` variants, built
    /// lazily on the first tiled session (most sweeps never pay for it).
    tiles: Mutex<Option<Arc<TiledRateCatalog>>>,
    /// The scene's object tracks on the `duration_s` × `FPS` grid,
    /// shared by every user trace.
    tracks: Arc<ObjectTracks>,
}

impl EvrSystem {
    /// Ingests `video` (the expensive server-side step, done once) over
    /// `duration_s` seconds of content.
    ///
    /// Ingestion fans out across the machine's cores (byte-identical to
    /// a serial ingest) and publishes every cluster's FOV pre-render
    /// into the process-wide [`FovPrerenderStore`], which the server
    /// then serves out of — re-building the same content is a pure
    /// store hit, and concurrent fleet users share one resident copy.
    pub fn build(video: VideoId, sas: SasConfig, duration_s: f64) -> Self {
        let scene = scene_for(video);
        let duration_s = duration_s.min(scene.duration());
        let store = FovPrerenderStore::shared().clone();
        let options =
            IngestOptions { workers: 0, store: Some(store.clone()), ..Default::default() };
        let catalog = ingest_video_with(&scene, &sas, duration_s, &options)
            .unwrap_or_else(|e| panic!("ingest of {video:?} failed: {e}"));
        let server = SasServer::with_store(catalog, store);
        let tracks = Arc::new(ObjectTracks::new(&scene, duration_s, evr_sas::ingest::FPS));
        EvrSystem {
            video,
            scene,
            server,
            sas,
            duration_s,
            observer: evr_obs::Observer::noop(),
            tiles: Mutex::new(None),
            tracks,
        }
    }

    /// The per-tile multi-rate catalog backing the `T`/`T+H` variants,
    /// ingesting it on first use (deterministic for any worker count, so
    /// lazy construction cannot perturb fleet parity).
    pub fn tiled_rates(&self) -> Arc<TiledRateCatalog> {
        let mut guard = self.tiles.lock().unwrap();
        if let Some(tiles) = guard.as_ref() {
            return tiles.clone();
        }
        let tiles = Arc::new(ingest_tiled_rates_with(&self.scene, &self.sas, self.duration_s, 0));
        *guard = Some(tiles.clone());
        tiles
    }

    /// Threads `observer` through the whole pipeline: the SAS server's
    /// request counters and every session built by
    /// [`EvrSystem::session_for`] from now on (frame and stage timings,
    /// FOV outcomes, PTE stats, energy gauges, and stage intervals when
    /// the observer carries a timeline). A no-op observer detaches
    /// everything again.
    pub fn instrument(&mut self, observer: &evr_obs::Observer) {
        self.server.set_observer(observer);
        self.observer = observer.clone();
    }

    /// The system's observer (a no-op handle unless
    /// [`EvrSystem::instrument`] was called).
    pub fn observer(&self) -> &evr_obs::Observer {
        &self.observer
    }

    /// The video this system serves.
    pub fn video(&self) -> VideoId {
        self.video
    }

    /// The SAS server (catalog access for storage metrics).
    pub fn server(&self) -> &SasServer {
        &self.server
    }

    /// The SAS configuration.
    pub fn sas_config(&self) -> &SasConfig {
        &self.sas
    }

    /// The ingested content duration, seconds.
    pub fn duration(&self) -> f64 {
        self.duration_s
    }

    /// The scene (ground truth for trace generation and analytics).
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Generates the head trace of one study user: the
    /// [`evr_trace::generate_user_trace`] trace, on object tracks the
    /// system's users share.
    pub fn user_trace(&self, user: u64) -> HeadTrace {
        self.tracks.generate(&params_for(self.video), user ^ ((self.video as u64) << 32))
    }

    /// Runs one user's playback under `variant` in the online-streaming
    /// use-case.
    pub fn run_user(&self, variant: Variant, user: u64) -> PlaybackReport {
        self.run_user_in(UseCase::OnlineStreaming, variant, user)
    }

    /// Runs one user's playback under `variant` in `use_case`.
    pub fn run_user_in(&self, use_case: UseCase, variant: Variant, user: u64) -> PlaybackReport {
        self.run_with(&self.session_for(use_case, variant), user)
    }

    /// Builds the (reusable) playback session for a use-case/variant.
    /// Construction pre-analyses the PTE memory pattern, so experiment
    /// sweeps should build once and [`EvrSystem::run_with`] per user.
    pub fn session_for(&self, use_case: UseCase, variant: Variant) -> PlaybackSession {
        let session = PlaybackSession::with_observer(
            variant.session(use_case, self.sas),
            self.observer.clone(),
        );
        if variant.is_tiled() {
            session.with_tiles(self.tiled_rates())
        } else {
            session
        }
    }

    /// Runs one user through a pre-built session. The user id travels
    /// as the session's [`evr_obs::TraceCtx`], so timed runs attribute
    /// every recorded interval to this user.
    pub fn run_with(&self, session: &PlaybackSession, user: u64) -> PlaybackReport {
        session.run_traced(
            &self.server,
            &self.user_trace(user),
            evr_obs::TraceCtx::for_user(user as i64),
        )
    }

    /// Runs one user's playback under `variant` with faults injected.
    /// The setup's seed is combined with the user id so every user sees
    /// an independent (but replayable) fault stream; a clean setup is
    /// bit-identical to [`EvrSystem::run_user`].
    pub fn run_user_resilient(
        &self,
        use_case: UseCase,
        variant: Variant,
        user: u64,
        setup: &evr_faults::FaultSetup,
    ) -> PlaybackReport {
        self.run_with_resilient(&self.session_for(use_case, variant), user, setup)
    }

    /// Runs one user through a pre-built session with faults injected
    /// (per-user fault seed derived as in
    /// [`EvrSystem::run_user_resilient`]).
    pub fn run_with_resilient(
        &self,
        session: &PlaybackSession,
        user: u64,
        setup: &evr_faults::FaultSetup,
    ) -> PlaybackReport {
        let mut per_user = setup.clone();
        per_user.seed ^= user.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        session.run_resilient_traced(
            &self.server,
            &self.user_trace(user),
            &per_user,
            evr_obs::TraceCtx::for_user(user as i64),
        )
    }

    /// Derives a system whose store keeps only `utilization` of the
    /// objects' FOV videos (the Fig. 14 sweep), without re-ingesting.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` exceeds the ingested utilisation.
    pub fn with_utilization(&self, utilization: f64) -> EvrSystem {
        let catalog = self.server.catalog().with_utilization(utilization);
        let mut sas = self.sas;
        sas.object_utilization = utilization;
        // Same content fingerprint, fewer indexed streams: the derived
        // server keeps serving the surviving clusters out of the shared
        // pre-render store.
        let mut server = SasServer::with_store(catalog, FovPrerenderStore::shared().clone());
        server.set_observer(&self.observer);
        EvrSystem {
            video: self.video,
            scene: self.scene.clone(),
            server,
            sas,
            duration_s: self.duration_s,
            observer: self.observer.clone(),
            tiles: Mutex::new(self.tiles.lock().unwrap().clone()),
            tracks: self.tracks.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_energy::{Activity, Component};

    fn tiny_system() -> EvrSystem {
        EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0)
    }

    #[test]
    fn variants_order_energy_sensibly() {
        let sys = tiny_system();
        let base = sys.run_user(Variant::Baseline, 1);
        let h = sys.run_user(Variant::H, 1);
        let sh = sys.run_user(Variant::SPlusH, 1);
        assert!(h.ledger.total() < base.ledger.total(), "H beats baseline");
        assert!(sh.ledger.total() < base.ledger.total(), "S+H beats baseline");
        // PT energy ordering: baseline (GPU every frame) is the worst.
        let pt = |r: &evr_client::session::PlaybackReport| {
            r.ledger.activity_total(Activity::ProjectiveTransform)
        };
        assert!(pt(&h) < pt(&base));
        assert!(pt(&sh) <= pt(&h));
    }

    #[test]
    fn oracle_variants_never_miss() {
        let sys = tiny_system();
        let r = sys.run_user(Variant::PerfectHmp, 2);
        assert_eq!(r.fov_misses, 0);
        assert!(r.fov_hits > 0);
        assert_eq!(r.fallback_frames, 0);
        assert_eq!(r.ledger.activity_total(Activity::ProjectiveTransform), 0.0);
    }

    #[test]
    fn live_and_offline_only_apply_h() {
        assert_eq!(UseCase::LiveStreaming.applicable_variants(), &[Variant::H]);
        assert_eq!(UseCase::OfflinePlayback.applicable_variants(), &[Variant::H]);
        assert_eq!(UseCase::OnlineStreaming.applicable_variants().len(), 3);
    }

    #[test]
    fn offline_h_has_no_network_energy() {
        let sys = tiny_system();
        let r = sys.run_user_in(UseCase::OfflinePlayback, Variant::H, 0);
        assert_eq!(r.ledger.component_total(Component::Network), 0.0);
    }

    #[test]
    fn live_baseline_vs_h_differ_only_in_renderer() {
        let sys = tiny_system();
        let base = sys.run_user_in(UseCase::LiveStreaming, Variant::Baseline, 4);
        let h = sys.run_user_in(UseCase::LiveStreaming, Variant::H, 4);
        // Same bytes (no SAS either way), less energy with the PTE.
        assert_eq!(base.bytes_received, h.bytes_received);
        assert!(h.ledger.total() < base.ledger.total());
    }

    #[test]
    fn user_traces_are_deterministic() {
        let sys = tiny_system();
        assert_eq!(sys.user_trace(7), sys.user_trace(7));
        assert_ne!(sys.user_trace(7), sys.user_trace(8));
    }

    #[test]
    fn user_traces_are_the_one_off_traces_bit_for_bit() {
        let bits = |trace: &HeadTrace| -> Vec<[u64; 4]> {
            let b = |s: &evr_trace::PoseSample| {
                [s.t, s.pose.yaw.0, s.pose.pitch.0, s.pose.roll.0].map(f64::to_bits)
            };
            trace.samples().iter().map(b).collect()
        };
        let sys = tiny_system();
        let derived = sys.with_utilization(sys.sas_config().object_utilization / 2.0);
        for user in 0..24 {
            let one_off = evr_trace::generate_user_trace(
                sys.scene(),
                &params_for(sys.video()),
                user ^ ((sys.video() as u64) << 32),
                sys.duration(),
                evr_sas::ingest::FPS,
            );
            assert_eq!(bits(&sys.user_trace(user)), bits(&one_off), "user {user}");
            assert_eq!(bits(&derived.user_trace(user)), bits(&one_off), "user {user}, derived");
        }
    }

    #[test]
    fn instrumented_system_populates_pipeline_metrics() {
        use evr_obs::names;
        let obs = evr_obs::Observer::enabled();
        let mut sys = tiny_system();
        sys.instrument(&obs);
        let r = sys.run_user(Variant::SPlusH, 3);
        assert_eq!(obs.counter(names::FOV_HITS).get(), r.fov_hits);
        assert_eq!(obs.counter(names::FOV_MISSES).get(), r.fov_misses);
        assert!(obs.counter(names::SAS_FOV_REQUESTS).get() > 0, "server saw FOV requests");
        for c in Component::ALL {
            let got = obs.gauge(&evr_obs::names::energy_gauge(&c.to_string())).get();
            assert!((got - r.ledger.component_total(c)).abs() < 1e-9, "{c:?}");
        }
        // Derived systems inherit the instrumentation.
        let derived = sys.with_utilization(sys.sas_config().object_utilization);
        assert!(derived.observer().is_enabled());
        // Detaching restores silent sessions.
        sys.instrument(&evr_obs::Observer::noop());
        let before = obs.counter(names::FRAMES).get();
        let _ = sys.run_user(Variant::SPlusH, 3);
        assert_eq!(obs.counter(names::FRAMES).get(), before);
    }

    #[test]
    fn resilient_clean_run_matches_plain_run() {
        let sys = tiny_system();
        let clean = sys.run_user(Variant::SPlusH, 5);
        let resilient = sys.run_user_resilient(
            UseCase::OnlineStreaming,
            Variant::SPlusH,
            5,
            &evr_faults::FaultSetup::none(),
        );
        assert_eq!(clean, resilient);
    }

    #[test]
    fn resilient_outage_reaches_the_report() {
        let sys = tiny_system();
        let setup = evr_faults::FaultSetup::none().with_plan(
            evr_faults::FaultPlan::none()
                .with(evr_faults::FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1e6 }),
        );
        let r = sys.run_user_resilient(UseCase::OnlineStreaming, Variant::SPlusH, 5, &setup);
        assert_eq!(r.faults.frozen_frames, r.frames_total);
        assert!(r.faults.timeouts > 0);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Variant::SPlusH.to_string(), "S+H");
        assert_eq!(UseCase::LiveStreaming.to_string(), "live-streaming");
    }
}
