//! The staged per-segment playback pipeline.
//!
//! Every playback flavour — clean streaming, tiled view-guided
//! streaming, fault-resilient streaming — used to be its own
//! hand-maintained loop in `session.rs`. They are all the same four
//! stages per segment:
//!
//! ```text
//! plan → fetch → decode/render → account
//! ```
//!
//! * **plan** samples the segment's link state and picks the FOV stream
//!   (SAS paths only) — or, on a tiled session, allocates the link's
//!   byte budget across every tile's rungs;
//! * **fetch** walks the degradation ladder (FOV video → full-quality
//!   original → lower-bitrate rung → freeze, or per tile: allocated
//!   rung → coarsest rung → frozen tile) through a [`Transport`],
//!   which decides how requests reach the server and what can go wrong
//!   on the way back ([`CleanTransport`] never fails; a
//!   [`FaultedTransport`] runs every rung under the `evr-faults` retry
//!   policy);
//! * **decode/render** plays the delivered frames: an FOV-check hit
//!   displays the decoded FOV frame directly, every other frame is
//!   decoded and projected on the session's PT hardware ([`Backend`]);
//! * **account** charges the per-segment session costs (GPU context
//!   power) into the [`EnergyLedger`].
//!
//! [`PlaybackSession::run`] and [`PlaybackSession::run_resilient`] are
//! thin configurations of this one pipeline; a session carrying a
//! [`TiledRateCatalog`] plays tiled. `tests/pipeline_parity.rs` pins
//! their reports bit-identical to the pre-unification loops.
//!
//! The run's [`PlaybackReport`] is its one record: an observed session
//! adds the report's totals into its counters and energy gauges once,
//! at the end of the run, and observes only the frame, stall and stage
//! timings per event.
//!
//! [`PlaybackSession::run`]: crate::session::PlaybackSession::run
//! [`PlaybackSession::run_resilient`]: crate::session::PlaybackSession::run_resilient

use std::sync::Arc;
use std::time::Instant;

use evr_energy::{Activity, Component, DeviceParams, EnergyLedger};
use evr_faults::{FaultInjector, FaultSetup, FrontGate, LinkState, RequestFate};
use evr_obs::{names, Counter, Gauge, Histogram, Observer, TraceCtx};
use evr_projection::FovFrameMeta;
use evr_pte::{FrameStats, Pte};
use evr_sas::checker::{CheckOutcome, FovChecker};
use evr_sas::ingest::FPS;
use evr_sas::{PrerenderedFov, SasServer, TiledRateCatalog};
use evr_trace::HeadTrace;
use evr_video::codec::EncodedSegment;

use crate::network::NetworkModel;
use crate::session::{
    frame_wire_bytes, FaultSummary, PlaybackReport, PlaybackSession, Renderer, SelectionPolicy,
    SessionConfig,
};

/// Pre-resolved playback metric handles; all detached (free) when the
/// session's observer is a no-op. The histograms are observed per
/// event; the counters and gauges are written once per run, from the
/// run's report, by [`SessionMetrics::mirror`].
#[derive(Debug, Clone)]
pub(crate) struct SessionMetrics {
    enabled: bool,
    frame_seconds: Histogram,
    fault_stall_seconds: Histogram,
    stage_plan: Histogram,
    stage_fetch: Histogram,
    stage_render: Histogram,
    stage_account: Histogram,
    frames: Counter,
    fov_hits: Counter,
    fov_misses: Counter,
    fallback_frames: Counter,
    rebuffer_events: Counter,
    rebuffer_seconds: Gauge,
    segments: Counter,
    fetch_bytes: Counter,
    pt_gpu_frames: Counter,
    pt_pte_frames: Counter,
    pte_frames: Counter,
    pte_active_cycles: Counter,
    pte_stall_cycles: Counter,
    pte_pmem_hits: Counter,
    pte_pmem_misses: Counter,
    fault_retries: Counter,
    fault_timeouts: Counter,
    degraded_frames: Counter,
    frozen_frames: Counter,
    backoff_seconds: Gauge,
    /// `evr_energy_joules_<component>`, in [`Component::ALL`] order.
    energy: [Gauge; Component::ALL.len()],
}

/// Fault-stall histogram bounds, seconds: backoff waits (tens of ms) up
/// to multi-second outage-ladder stalls.
pub(crate) const STALL_BOUNDS_S: [f64; 10] =
    [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

impl SessionMetrics {
    pub(crate) fn resolve(observer: &Observer) -> Self {
        let stage = |name: &str| {
            observer.histogram(&names::pipeline_stage_seconds(name), &evr_obs::LATENCY_BOUNDS_S)
        };
        SessionMetrics {
            enabled: observer.is_enabled(),
            frame_seconds: observer.histogram(names::FRAME_SECONDS, &evr_obs::LATENCY_BOUNDS_S),
            fault_stall_seconds: observer.histogram(names::FAULT_STALL_SECONDS, &STALL_BOUNDS_S),
            stage_plan: stage("plan"),
            stage_fetch: stage("fetch"),
            stage_render: stage("render"),
            stage_account: stage("account"),
            frames: observer.counter(names::FRAMES),
            fov_hits: observer.counter(names::FOV_HITS),
            fov_misses: observer.counter(names::FOV_MISSES),
            fallback_frames: observer.counter(names::FALLBACK_FRAMES),
            rebuffer_events: observer.counter(names::REBUFFER_EVENTS),
            rebuffer_seconds: observer.gauge(names::REBUFFER_SECONDS),
            segments: observer.counter(names::SEGMENTS),
            fetch_bytes: observer.counter(names::FETCH_BYTES),
            pt_gpu_frames: observer.counter(names::PT_GPU_FRAMES),
            pt_pte_frames: observer.counter(names::PT_PTE_FRAMES),
            pte_frames: observer.counter(names::PTE_FRAMES),
            pte_active_cycles: observer.counter(names::PTE_ACTIVE_CYCLES),
            pte_stall_cycles: observer.counter(names::PTE_STALL_CYCLES),
            pte_pmem_hits: observer.counter(names::PTE_PMEM_HITS),
            pte_pmem_misses: observer.counter(names::PTE_PMEM_MISSES),
            fault_retries: observer.counter(names::FAULT_RETRIES),
            fault_timeouts: observer.counter(names::FAULT_TIMEOUTS),
            degraded_frames: observer.counter(names::DEGRADED_FRAMES),
            frozen_frames: observer.counter(names::FROZEN_FRAMES),
            backoff_seconds: observer.gauge(names::BACKOFF_SECONDS),
            energy: Component::ALL.map(|c| observer.gauge(&names::energy_gauge(&c.to_string()))),
        }
    }

    /// Adds one run's totals: the report's counters over its `segments`
    /// segments, the frames the `renderer` projected (the PTE's cycle
    /// and P-MEM counters are the session's representative `pte_frame`
    /// stats times those frames) and the ledger's joules per component.
    fn mirror(
        &self,
        r: &PlaybackReport,
        segments: u64,
        renderer: Renderer,
        pte_frame: &FrameStats,
    ) {
        if !self.enabled {
            return;
        }
        self.frames.add(r.frames_total);
        self.fov_hits.add(r.fov_hits);
        self.fov_misses.add(r.fov_misses);
        self.fallback_frames.add(r.fallback_frames);
        self.rebuffer_events.add(r.rebuffer_events);
        self.rebuffer_seconds.add(r.rebuffer_time_s);
        self.segments.add(segments);
        self.fetch_bytes.add(r.bytes_received);
        self.fault_retries.add(r.faults.retries);
        self.fault_timeouts.add(r.faults.timeouts);
        self.degraded_frames.add(r.faults.degraded_frames);
        self.frozen_frames.add(r.faults.frozen_frames);
        self.backoff_seconds.add(r.faults.backoff_time_s);
        // Every fallback frame, and only those, went through on-device PT.
        let pt_frames = r.fallback_frames;
        match renderer {
            Renderer::Gpu => self.pt_gpu_frames.add(pt_frames),
            Renderer::Pte => {
                self.pt_pte_frames.add(pt_frames);
                self.pte_frames.add(pt_frames);
                self.pte_active_cycles.add(pte_frame.active_cycles.saturating_mul(pt_frames));
                self.pte_stall_cycles.add(pte_frame.stall_cycles.saturating_mul(pt_frames));
                self.pte_pmem_hits.add(pte_frame.pmem_hits.saturating_mul(pt_frames));
                self.pte_pmem_misses.add(pte_frame.pmem_misses.saturating_mul(pt_frames));
            }
        }
        for (gauge, c) in self.energy.iter().zip(Component::ALL) {
            gauge.add(r.ledger.component_total(c));
        }
    }
}

/// The per-segment link view the fetch stage operates under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentLink {
    /// Effective network model: the sampled fault-process state when a
    /// time-varying link is attached, the session's static model
    /// otherwise.
    net: NetworkModel,
    /// Whether the link is up at the segment boundary.
    up: bool,
}

/// The mutable run state a [`Transport`] may touch while fetching:
/// stalls burn energy and are counted as they happen.
pub(crate) struct StageIo<'a> {
    ledger: &'a mut EnergyLedger,
    faults: &'a mut FaultSummary,
    device: &'a DeviceParams,
    metrics: &'a SessionMetrics,
}

impl StageIo<'_> {
    /// Accounts `dt` seconds of fault-induced stall: playback pauses
    /// while the radio idles and base power keeps burning.
    fn account_stall(&mut self, dt: f64) {
        self.faults.stall_time_s += dt;
        self.ledger.add(
            Component::Network,
            Activity::Resilience,
            self.device.network_energy(0, dt),
        );
        self.ledger.add(Component::Compute, Activity::Resilience, self.device.base_energy(dt));
        if self.metrics.enabled {
            self.metrics.fault_stall_seconds.observe(dt);
        }
    }
}

/// The fetch stage: how segment requests reach the server and what can
/// go wrong on the way back.
pub(crate) trait Transport {
    /// Whether radio wire bytes are accumulated per segment against the
    /// sampled link (its loss inflation varies over the run) instead of
    /// once at end-of-run against the session's static model. The two
    /// differ by per-segment rounding, so the distinction is load-bearing
    /// for report parity.
    const PER_SEGMENT_WIRE: bool;

    /// Samples the link for the segment starting at media time `media_t`
    /// with `stall_s` of accumulated stalls pushing the wall clock
    /// forward (outage windows and link profiles are indexed by it).
    fn segment_link(&mut self, base: &NetworkModel, media_t: f64, stall_s: f64) -> SegmentLink;

    /// One rung of the degradation ladder: delivers `wire_payload` bytes
    /// for segment `seg`, accounting retries, timeouts and stalls
    /// through `io` as they happen. Returns whether the rung delivered.
    fn fetch(
        &mut self,
        io: &mut StageIo<'_>,
        link: &SegmentLink,
        media_t: f64,
        seg: u32,
        wire_payload: u64,
    ) -> bool;

    /// Whether segment `seg`'s FOV payload arrives corrupt (detected by
    /// the leading intra decode after the transfer was paid for).
    fn corrupts(&mut self, seg: u32) -> bool;

    /// Byte scale of the degraded lower-bitrate rung.
    fn low_rung_scale(&self) -> f64;

    /// Consults the serving front's admission control before the FOV
    /// rung (or the tile batch) of segment `seg` (media time `media_t`,
    /// `stall_s` of accumulated stalls pushing the wall clock). The
    /// default — and the clean transport — always serves with zero
    /// queueing, so the gate folds away entirely on the clean path.
    fn front_gate(&mut self, _media_t: f64, _stall_s: f64, _seg: u32, _content: u64) -> FrontGate {
        FrontGate::Serve { queue_delay_s: 0.0 }
    }
}

/// A fault-free network (or local storage): every request is served
/// immediately over the session's static link model.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CleanTransport;

impl Transport for CleanTransport {
    const PER_SEGMENT_WIRE: bool = false;

    #[inline]
    fn segment_link(&mut self, base: &NetworkModel, _media_t: f64, _stall_s: f64) -> SegmentLink {
        SegmentLink { net: *base, up: true }
    }

    #[inline]
    fn fetch(
        &mut self,
        _io: &mut StageIo<'_>,
        _link: &SegmentLink,
        _media_t: f64,
        _seg: u32,
        _wire_payload: u64,
    ) -> bool {
        true
    }

    #[inline]
    fn corrupts(&mut self, _seg: u32) -> bool {
        false
    }

    fn low_rung_scale(&self) -> f64 {
        1.0
    }
}

/// A link under deterministic fault injection: every rung is fetched
/// under the setup's retry policy — requests time out on server
/// outages, dropped requests, dead links and transfers slower than the
/// deadline, and are re-attempted after an exponentially growing,
/// deterministically jittered backoff wait.
#[derive(Debug)]
pub(crate) struct FaultedTransport {
    injector: FaultInjector,
}

impl FaultedTransport {
    /// Builds the transport from a fault setup (seeds the injector).
    pub(crate) fn new(setup: &FaultSetup) -> Self {
        FaultedTransport { injector: FaultInjector::new(setup) }
    }
}

impl Transport for FaultedTransport {
    const PER_SEGMENT_WIRE: bool = true;

    fn segment_link(&mut self, base: &NetworkModel, media_t: f64, stall_s: f64) -> SegmentLink {
        let link = self.injector.link_for(media_t + stall_s);
        SegmentLink { net: effective_network(base, link), up: link.is_none_or(|l| l.is_up()) }
    }

    fn fetch(
        &mut self,
        io: &mut StageIo<'_>,
        link: &SegmentLink,
        media_t: f64,
        seg: u32,
        wire_payload: u64,
    ) -> bool {
        let policy = *self.injector.retry();
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                let b = self.injector.backoff_s(attempt - 1);
                io.faults.retries += 1;
                io.faults.backoff_time_s += b;
                io.account_stall(b);
            }
            // Stalls push the wall clock forward, so an outage window
            // can end while the client is still backing off.
            let now = media_t + io.faults.stall_time_s;
            let delivered = match self.injector.request_fate(now, seg) {
                RequestFate::Outage | RequestFate::Dropped => false,
                RequestFate::Delivered => {
                    link.up
                        && link.net.rtt_s + link.net.transfer_time(wire_payload) <= policy.timeout_s
                }
            };
            if delivered {
                // A scheduled late delivery stalls playback but does not
                // trip the timeout (the bytes are flowing).
                let late = self.injector.late_delay(seg);
                if late > 0.0 {
                    io.account_stall(late);
                }
                return true;
            }
            io.faults.timeouts += 1;
            io.account_stall(policy.timeout_s);
        }
        false
    }

    fn corrupts(&mut self, seg: u32) -> bool {
        self.injector.corrupts(seg)
    }

    fn low_rung_scale(&self) -> f64 {
        self.injector.low_rung_scale()
    }

    fn front_gate(&mut self, media_t: f64, stall_s: f64, seg: u32, content: u64) -> FrontGate {
        // Stalls push the wall clock, so an outage window can end while
        // the client is stalled — same convention as `fetch`.
        self.injector.front_gate(media_t + stall_s, content, seg)
    }
}

/// The decode/render stage's on-device projective transform on the
/// session's [`SessionConfig::renderer`]. Every projected frame fills
/// the same panel in the same frame slot, so one frame's compute and
/// memory joules are worked out once per run.
#[derive(Debug, Clone, Copy)]
struct Backend {
    renderer: Renderer,
    compute_j: f64,
    memory_j: f64,
}

impl Backend {
    fn of(session: &PlaybackSession) -> Self {
        let cfg = &session.cfg;
        let device = &cfg.device;
        let (compute_j, memory_j) = match cfg.renderer {
            // Texture-mapping PT on the mobile GPU (today's path).
            Renderer::Gpu => {
                let cost = cfg.gpu.pt_frame(device.panel_pixels);
                (cost.energy_j, device.dram_energy(cost.dram_bytes))
            }
            // The PTE accelerator (HAR) at the session's pre-analysed
            // representative frame cost: datapath + SRAM + leakage for
            // the whole frame slot (the PTE stays powered across slots
            // it renders in).
            Renderer::Pte => {
                let s = &session.pte_frame;
                let leakage_w = Pte::new(cfg.pte).energy_params().leakage_w;
                let idle = (1.0 / FPS - s.frame_time_s()).max(0.0) * leakage_w;
                (
                    s.compute_energy_j + s.sram_energy_j + s.leakage_energy_j + idle,
                    device.dram_energy(s.dram_read_bytes + s.dram_write_bytes),
                )
            }
        };
        Backend { renderer: cfg.renderer, compute_j, memory_j }
    }

    /// Accounts one frame of on-device PT into `ledger`; returns whether
    /// the GPU ran (GPU context power is charged per segment by the
    /// account stage).
    #[inline]
    fn render(&self, ledger: &mut EnergyLedger) -> bool {
        ledger.add(Component::Compute, Activity::ProjectiveTransform, self.compute_j);
        ledger.add(Component::Memory, Activity::ProjectiveTransform, self.memory_j);
        self.renderer == Renderer::Gpu
    }
}

/// What the plan stage chose for one segment.
enum SegmentPlan<'s> {
    /// Whole-frame playback: the FOV stream to request (SAS paths only).
    Whole { chosen: Option<usize> },
    /// Tiled playback: the rung allocated to every tile of `tiles`.
    Tiles { tiles: &'s TiledRateCatalog, rungs: Vec<usize> },
}

/// Where a segment's content came from after the fetch stage ran.
enum SegmentSource<'a> {
    /// The requested FOV video (the clean happy path).
    Fov {
        /// The delivered pre-render, shared out of the server's store.
        payload: Arc<PrerenderedFov>,
    },
    /// The original panorama at `byte_scale` of its full wire size;
    /// `degraded` marks the lower-bitrate rung.
    Original { byte_scale: f64, degraded: bool },
    /// At least one tile of `tiles` arrived: `delivered[t]` is tile
    /// `t`'s rung, `None` if it froze; `degraded` marks a segment served
    /// below its allocation (shed batch, coarsest-rung retry, corrupt
    /// re-fetch or a frozen tile).
    Tiles { tiles: &'a TiledRateCatalog, delivered: Vec<Option<usize>>, degraded: bool },
    /// Nothing arrived: the last frame stays on screen.
    Freeze,
}

/// Per-run byte/frame geometry, precomputed once.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    fov_scale: f64,
    src_scale: f64,
    src_px: u64,
    fov_px: u64,
    slot: f64,
}

impl Geometry {
    fn of(cfg: &SessionConfig) -> Self {
        Geometry {
            fov_scale: cfg.sas.fov_byte_scale(),
            src_scale: cfg.sas.src_byte_scale(),
            src_px: cfg.sas.target_src.0 as u64 * cfg.sas.target_src.1 as u64,
            fov_px: cfg.sas.target_fov.0 as u64 * cfg.sas.target_fov.1 as u64,
            slot: 1.0 / FPS,
        }
    }
}

/// Mutable state accumulated across a run.
struct RunState {
    ledger: EnergyLedger,
    checker: FovChecker,
    fallback_frames: u64,
    frames_total: u64,
    rebuffer_events: u64,
    rebuffer_time_s: f64,
    bytes_received: u64,
    storage_read_bytes: u64,
    wire_bytes_total: u64,
    faults: FaultSummary,
}

impl RunState {
    fn new(fov: evr_projection::FovSpec) -> Self {
        RunState {
            ledger: EnergyLedger::new(),
            checker: FovChecker::new(fov),
            fallback_frames: 0,
            frames_total: 0,
            rebuffer_events: 0,
            rebuffer_time_s: 0.0,
            bytes_received: 0,
            storage_read_bytes: 0,
            wire_bytes_total: 0,
            faults: FaultSummary::default(),
        }
    }

    /// The run state a [`Transport`] may touch while fetching.
    fn io<'a>(&'a mut self, session: &'a PlaybackSession) -> StageIo<'a> {
        StageIo {
            ledger: &mut self.ledger,
            faults: &mut self.faults,
            device: &session.cfg.device,
            metrics: &session.metrics,
        }
    }

    /// A corrupt payload is detected by its leading intra decode of
    /// `intra_bytes` over `pixels`: the transfer was paid for, and so is
    /// that decode.
    fn account_corrupt(&mut self, d: &DeviceParams, pixels: u64, intra_bytes: u64) {
        self.faults.corrupt_segments += 1;
        self.ledger.add(
            Component::Compute,
            Activity::Resilience,
            d.decode_energy(pixels, intra_bytes),
        );
        self.ledger.add(
            Component::Memory,
            Activity::Resilience,
            d.dram_energy(d.decode_dram_bytes(pixels)),
        );
    }
}

/// Observes the time since `t0` into `h`; `t0` is `Some` exactly on
/// observed runs.
#[inline]
fn observe_since(h: &Histogram, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        h.observe(t0.elapsed().as_secs_f64());
    }
}

/// One staged playback run: the `plan → fetch → decode/render →
/// account` loop, generic over the [`Transport`] (clean vs faulted
/// link), with the session's PT hardware as a [`Backend`].
///
/// Whole-frame and tiled playback share the loop and differ only in the
/// stage bodies, chosen by whether the session carries a
/// [`TiledRateCatalog`].
pub(crate) struct SegmentPipeline<'s, T> {
    session: &'s PlaybackSession,
    server: &'s SasServer,
    trace: &'s HeadTrace,
    transport: T,
    backend: Backend,
    /// Who this run is for; recorded (narrowed per segment) on every
    /// timeline interval when the observer carries an enabled timeline.
    ctx: TraceCtx,
}

impl<'s, T: Transport> SegmentPipeline<'s, T> {
    pub(crate) fn new(
        session: &'s PlaybackSession,
        server: &'s SasServer,
        trace: &'s HeadTrace,
        transport: T,
        ctx: TraceCtx,
    ) -> Self {
        let backend = Backend::of(session);
        SegmentPipeline { session, server, trace, transport, backend, ctx }
    }

    /// Drives the four stages over every segment, then settles the
    /// session-wide energy components.
    pub(crate) fn run(mut self) -> PlaybackReport {
        let session = self.session;
        let server = self.server;
        let cfg = &session.cfg;
        let m = &session.metrics;
        let observed = m.enabled;
        // The timeline is opt-in on top of an enabled observer; `timed`
        // is hoisted so an untimed run skips every clock read below.
        let tl = session.observer.timeline();
        let timed = tl.is_enabled();
        let catalog = server.catalog();
        let tiled = session.tiles.as_deref();
        if let Some(tiles) = tiled {
            assert_eq!(
                tiles.segment_count(),
                catalog.segment_count(),
                "tiled rate catalog must cover the same segments"
            );
        }
        let weights = tiled.map(|t| t.grid().tile_weights()).unwrap_or_default();
        let safety = crate::abr::AbrPolicy::default().safety;
        let geom = Geometry::of(cfg);
        let mut st = RunState::new(cfg.sas.device_fov);

        for seg in 0..catalog.segment_count() {
            let mut ctx = self.ctx.with_segment(seg as i64);
            let original = catalog
                .try_original_segment(seg)
                .expect("every segment below segment_count has an original");
            let n = original.frames.len() as u64;
            let seg_start_t = original.start_index as f64 / FPS;
            let seg_duration = n as f64 / FPS;
            let orig_bytes = original.scaled_bytes(catalog.config().src_byte_scale());

            // plan: sample the segment's link; pick the FOV stream, or
            // classify the tiles against the selection pose and allocate
            // the segment's byte budget across their rungs.
            let t0 = observed.then(Instant::now);
            let ts = timed.then(|| tl.now_ns());
            let link =
                self.transport.segment_link(&cfg.network, seg_start_t, st.faults.stall_time_s);
            let plan = match tiled {
                Some(tiles) => {
                    let pose = selection_pose(cfg, self.trace, seg_start_t);
                    let classes = tiles.grid().classify_tiles(
                        pose,
                        cfg.sas.device_fov,
                        evr_sas::PERIPHERY_MARGIN,
                    );
                    let budget = (link.net.bandwidth_bps * seg_duration / 8.0 * safety) as u64;
                    let rung_bytes = tiles.tile_rung_bytes(seg);
                    let alloc =
                        crate::abr::allocate_tile_rungs(&rung_bytes, &weights, &classes, budget);
                    SegmentPlan::Tiles { tiles, rungs: alloc.rungs }
                }
                None if cfg.path.uses_sas() => SegmentPlan::Whole {
                    chosen: server.best_cluster(seg, selection_pose(cfg, self.trace, seg_start_t)),
                },
                None => SegmentPlan::Whole { chosen: None },
            };
            observe_since(&m.stage_plan, t0);
            if let Some(ts) = ts {
                tl.record("plan", ctx, ts, tl.now_ns());
            }

            // fetch: walk the degradation ladder (per tile, on a tiled
            // session) until a rung delivers. `acquire` stamps the server request id into `ctx`, so the
            // fetch interval below carries it for the exemplar table.
            let t0 = observed.then(Instant::now);
            let ts = timed.then(|| tl.now_ns());
            let source = match plan {
                SegmentPlan::Whole { chosen } => self.acquire(
                    &mut st,
                    &link,
                    seg,
                    seg_start_t,
                    chosen,
                    orig_bytes,
                    &geom,
                    &mut ctx,
                ),
                SegmentPlan::Tiles { tiles, rungs } => {
                    self.acquire_tiles(&mut st, &link, seg, seg_start_t, tiles, rungs, &geom)
                }
            };
            observe_since(&m.stage_fetch, t0);
            if let Some(ts) = ts {
                tl.record("fetch", ctx, ts, tl.now_ns());
            }

            // decode/render: play the delivered frames.
            let t0 = observed.then(Instant::now);
            let ts = timed.then(|| tl.now_ns());
            let gpu_used = match source {
                SegmentSource::Fov { payload } => self.play_fov(
                    &mut st,
                    &link,
                    seg_start_t,
                    original,
                    orig_bytes,
                    &payload.data,
                    &payload.meta,
                    &geom,
                ),
                SegmentSource::Original { byte_scale, degraded } => {
                    self.play_original(&mut st, original, byte_scale, degraded, &geom)
                }
                SegmentSource::Tiles { tiles, delivered, degraded } => {
                    self.play_tiles(&mut st, seg, n, tiles, &delivered, degraded, &geom)
                }
                SegmentSource::Freeze => {
                    self.freeze(&mut st, n);
                    false
                }
            };
            observe_since(&m.stage_render, t0);
            if let Some(ts) = ts {
                tl.record("render", ctx, ts, tl.now_ns());
            }

            // account: keeping the GPU context alive costs session power
            // for the whole segment in which the GPU ran at all (§3:
            // invoking the GPU "necessarily invokes the entire software
            // stack").
            let t0 = observed.then(Instant::now);
            let ts = timed.then(|| tl.now_ns());
            if gpu_used {
                st.ledger.add(
                    Component::Compute,
                    Activity::ProjectiveTransform,
                    cfg.gpu.session_energy(seg_duration),
                );
            }
            observe_since(&m.stage_account, t0);
            if let Some(ts) = ts {
                tl.record("account", ctx, ts, tl.now_ns());
            }
        }

        self.finish(st)
    }

    /// Consults the serving front's admission gate before segment
    /// `seg`'s content request and accounts the verdict: queueing and
    /// refusal latency stall playback (a shed response always costs
    /// its latency), and shed or unavailable segments are counted.
    /// Clean transports always serve with zero queueing, so the
    /// gate folds away on the clean path.
    fn admit(&mut self, st: &mut RunState, seg: u32, seg_start_t: f64) -> FrontGate {
        let session = self.session;
        let content = self.server.catalog().content_id();
        let gate = self.transport.front_gate(seg_start_t, st.faults.stall_time_s, seg, content);
        match gate {
            FrontGate::Serve { queue_delay_s } => {
                if queue_delay_s > 0.0 {
                    st.io(session).account_stall(queue_delay_s);
                }
            }
            FrontGate::Shed { latency_s } => {
                st.io(session).account_stall(latency_s);
                st.faults.shed_segments += 1;
            }
            FrontGate::Unavailable { latency_s } => {
                if latency_s > 0.0 {
                    st.io(session).account_stall(latency_s);
                }
                st.faults.front_unavailable_segments += 1;
            }
        }
        gate
    }

    /// Delivers `bytes` of segment `seg`: read from storage on the
    /// network-free path (never fails), otherwise fetched through the
    /// transport and folded into the run's wire accounting. Returns
    /// whether the payload arrived.
    #[inline]
    fn deliver(
        &mut self,
        st: &mut RunState,
        link: &SegmentLink,
        media_t: f64,
        seg: u32,
        bytes: u64,
    ) -> bool {
        let session = self.session;
        if !session.cfg.path.uses_network() {
            st.storage_read_bytes += bytes;
            return true;
        }
        if !self.transport.fetch(&mut st.io(session), link, media_t, seg, bytes) {
            return false;
        }
        st.bytes_received += bytes;
        if T::PER_SEGMENT_WIRE {
            st.wire_bytes_total += link.net.wire_bytes(bytes);
        }
        true
    }

    /// The whole-frame fetch stage: walks the degradation ladder — FOV
    /// video → full-quality original → lower-bitrate rung → freeze —
    /// until a rung delivers. On a [`CleanTransport`] the first
    /// applicable rung always succeeds and the lower rungs fold away.
    #[allow(clippy::too_many_arguments)]
    fn acquire(
        &mut self,
        st: &mut RunState,
        link: &SegmentLink,
        seg: u32,
        seg_start_t: f64,
        chosen: Option<usize>,
        orig_bytes: u64,
        geom: &Geometry,
        ctx: &mut TraceCtx,
    ) -> SegmentSource<'s> {
        let session = self.session;
        let server = self.server;

        // The front gate sits before the FOV rung: a shed response skips
        // straight to the low rung (the shed payload *is* the low-rung
        // original), an unavailable shard descends the ladder normally.
        let gate = chosen.map(|_| self.admit(st, seg, seg_start_t));
        if let (Some(FrontGate::Serve { .. }), Some(cluster)) = (gate, chosen) {
            // The server hands out refcounted pre-renders out of its
            // store: many sessions share one resident copy. Request-scoped
            // tracing: on timed runs the fetch is recorded as a
            // `sas_fetch_fov` interval whose request id also stamps this
            // segment's fetch-stage interval, so the two correlate.
            let tl = session.observer.timeline();
            let fetched = if tl.is_enabled() {
                ctx.request = tl.next_request_id();
                let t0 = tl.now_ns();
                let result = server.fetch_fov(seg, cluster);
                tl.record(names::TIMELINE_SAS_FETCH, *ctx, t0, tl.now_ns());
                result
            } else {
                server.fetch_fov(seg, cluster)
            };
            if let Ok((payload, wire_bytes)) = fetched {
                if self.deliver(st, link, seg_start_t, seg, wire_bytes) {
                    if !self.transport.corrupts(seg) {
                        return SegmentSource::Fov { payload };
                    }
                    // The ladder descends past a corrupt FOV video.
                    let intra = frame_wire_bytes(&payload.data.frames[0], geom.fov_scale);
                    st.account_corrupt(&session.cfg.device, geom.fov_px, intra);
                }
            }
        }
        // A front shed skips the full-quality rung: the front already
        // answered with the low-rung original, so asking it for the
        // full original would defeat the load shedding.
        let front_shed = matches!(gate, Some(FrontGate::Shed { .. }));
        if !front_shed && self.deliver(st, link, seg_start_t, seg, orig_bytes) {
            return SegmentSource::Original { byte_scale: 1.0, degraded: false };
        }
        let low_scale = self.transport.low_rung_scale();
        let low_bytes = (orig_bytes as f64 * low_scale).round() as u64;
        if self.deliver(st, link, seg_start_t, seg, low_bytes) {
            return SegmentSource::Original { byte_scale: low_scale, degraded: true };
        }
        SegmentSource::Freeze
    }

    /// The tiled fetch stage. The front gate covers the whole tile batch
    /// (a shed batch is answered at the coarsest rung of every tile —
    /// the tile analogue of the shed low-rung original); then each tile
    /// walks its own two-rung ladder under the transport's retry policy.
    /// A tile whose allocated rung fails retries at the coarsest rung
    /// (that tile degrades); a tile whose coarsest rung also fails
    /// freezes (its last texture repeats). Partial tile loss never
    /// freezes the whole frame; losing every tile does.
    #[allow(clippy::too_many_arguments)]
    fn acquire_tiles(
        &mut self,
        st: &mut RunState,
        link: &SegmentLink,
        seg: u32,
        seg_start_t: f64,
        tiles: &'s TiledRateCatalog,
        mut rungs: Vec<usize>,
        geom: &Geometry,
    ) -> SegmentSource<'s> {
        let session = self.session;
        let shed = matches!(self.admit(st, seg, seg_start_t), FrontGate::Shed { .. });
        if shed {
            rungs.fill(0);
        }
        let mut degraded = shed;
        let mut corruption_checked = false;
        let mut delivered: Vec<Option<usize>> = Vec::with_capacity(rungs.len());
        for (t, &want) in rungs.iter().enumerate() {
            let wire = |r| tiles.rung(seg, t, r).wire_bytes;
            let mut got = self.deliver(st, link, seg_start_t, seg, wire(want)).then_some(want);
            if got.is_none() && want > 0 {
                got = self.deliver(st, link, seg_start_t, seg, wire(0)).then_some(0);
                degraded |= got.is_some();
            }
            // The first delivered tile's leading intra decode detects a
            // corrupt batch; that tile then re-fetches its coarsest rung.
            if let (Some(r), false) = (got, corruption_checked) {
                corruption_checked = true;
                if self.transport.corrupts(seg) {
                    let intra = tiles.rung(seg, t, r).frame_bytes[0];
                    st.account_corrupt(&session.cfg.device, geom.src_px, intra);
                    got = self.deliver(st, link, seg_start_t, seg, wire(0)).then_some(0);
                    degraded |= got.is_some();
                }
            }
            delivered.push(got);
        }
        if delivered.iter().all(Option::is_none) {
            return SegmentSource::Freeze;
        }
        let degraded = degraded || delivered.contains(&None);
        SegmentSource::Tiles { tiles, delivered, degraded }
    }

    /// Plays a delivered FOV segment: per frame, FOV-check hit → direct
    /// display of the decoded FOV frame, no on-device PT; first miss →
    /// mid-segment fallback fetch of the original, catch-up decode of
    /// its reference chain, and on-device PT for the segment's
    /// remainder.
    #[allow(clippy::too_many_arguments)]
    fn play_fov(
        &self,
        st: &mut RunState,
        link: &SegmentLink,
        seg_start_t: f64,
        original: &EncodedSegment,
        orig_bytes: u64,
        fov_seg: &EncodedSegment,
        meta: &[FovFrameMeta],
        geom: &Geometry,
    ) -> bool {
        let session = self.session;
        let cfg = &session.cfg;
        let m = &session.metrics;
        let n = original.frames.len();
        let mut gpu_used = false;
        let mut fell_back = false;
        #[allow(clippy::needless_range_loop)] // indexes three parallel sequences
        for f in 0..n {
            let frame_t0 = m.enabled.then(Instant::now);
            let t = seg_start_t + f as f64 * geom.slot;
            let pose = self.trace.pose_at(t);
            if !fell_back {
                let outcome = if cfg.oracle_hits {
                    st.checker.check(meta[f].orientation, &meta[f])
                } else {
                    st.checker.check(pose, &meta[f])
                };
                match outcome {
                    CheckOutcome::Hit => {
                        // Direct display: decode the FOV frame only.
                        account_decode(
                            &cfg.device,
                            &mut st.ledger,
                            geom.fov_px,
                            frame_wire_bytes(&fov_seg.frames[f], geom.fov_scale),
                        );
                        st.frames_total += 1;
                        observe_since(&m.frame_seconds, frame_t0);
                        continue;
                    }
                    CheckOutcome::Miss => {
                        // Mid-segment fallback: fetch the original over
                        // the segment's link and fall back for the
                        // segment's remainder.
                        fell_back = true;
                        st.rebuffer_events += 1;
                        let intra = frame_wire_bytes(&original.frames[0], geom.src_scale);
                        st.rebuffer_time_s += link.net.rebuffer_time(intra);
                        if cfg.path.uses_network() {
                            st.bytes_received += orig_bytes;
                            if T::PER_SEGMENT_WIRE {
                                st.wire_bytes_total += link.net.wire_bytes(orig_bytes);
                            }
                        } else {
                            st.storage_read_bytes += orig_bytes;
                        }
                        // Catch-up decode: the original's GOP starts at
                        // the segment boundary, so reaching frame `f`
                        // means decoding its whole reference chain first.
                        for g in 0..f {
                            account_decode(
                                &cfg.device,
                                &mut st.ledger,
                                geom.src_px,
                                frame_wire_bytes(&original.frames[g], geom.src_scale),
                            );
                        }
                    }
                }
            }
            // Fallback path: decode original + on-device PT.
            account_decode(
                &cfg.device,
                &mut st.ledger,
                geom.src_px,
                frame_wire_bytes(&original.frames[f], geom.src_scale),
            );
            gpu_used |= self.backend.render(&mut st.ledger);
            st.fallback_frames += 1;
            st.frames_total += 1;
            observe_since(&m.frame_seconds, frame_t0);
        }
        gpu_used
    }

    /// Plays a segment from the original panorama: decode at
    /// `byte_scale` of the full wire size plus on-device PT for every
    /// frame.
    fn play_original(
        &self,
        st: &mut RunState,
        original: &EncodedSegment,
        byte_scale: f64,
        degraded: bool,
        geom: &Geometry,
    ) -> bool {
        let cfg = &self.session.cfg;
        let m = &self.session.metrics;
        let n = original.frames.len() as u64;
        if degraded {
            st.faults.degraded_frames += n;
            st.faults.degraded_segments += 1;
        }
        let mut gpu_used = false;
        for frame in &original.frames {
            let frame_t0 = m.enabled.then(Instant::now);
            // `(x as f64 * 1.0) as u64` is exact below 2^53, so a
            // full-quality segment decodes its unscaled bytes.
            let bytes = (frame_wire_bytes(frame, geom.src_scale) as f64 * byte_scale) as u64;
            account_decode(&cfg.device, &mut st.ledger, geom.src_px, bytes);
            gpu_used |= self.backend.render(&mut st.ledger);
            observe_since(&m.frame_seconds, frame_t0);
        }
        st.fallback_frames += n;
        st.frames_total += n;
        gpu_used
    }

    /// Plays a tiled segment: full-resolution decode of the delivered
    /// tiles' bytes, then full PT on every frame (tiling never avoids
    /// on-device PT). Frozen tiles contribute no bytes. Observed runs
    /// time every frame, as the whole-frame bodies do.
    #[allow(clippy::too_many_arguments)]
    fn play_tiles(
        &self,
        st: &mut RunState,
        seg: u32,
        n: u64,
        tiles: &TiledRateCatalog,
        delivered: &[Option<usize>],
        degraded: bool,
        geom: &Geometry,
    ) -> bool {
        let cfg = &self.session.cfg;
        let m = &self.session.metrics;
        let mut gpu_used = false;
        for f in 0..n as usize {
            let frame_t0 = m.enabled.then(Instant::now);
            let bytes: u64 = delivered
                .iter()
                .enumerate()
                .filter_map(|(t, d)| d.map(|r| tiles.rung(seg, t, r).frame_bytes[f]))
                .sum();
            account_decode(&cfg.device, &mut st.ledger, geom.src_px, bytes);
            gpu_used |= self.backend.render(&mut st.ledger);
            observe_since(&m.frame_seconds, frame_t0);
        }
        st.fallback_frames += n;
        st.frames_total += n;
        if degraded {
            st.faults.degraded_frames += n;
            st.faults.degraded_segments += 1;
        }
        gpu_used
    }

    /// Every rung failed: the display repeats the last image for the
    /// whole segment — no decode, no PT.
    fn freeze(&self, st: &mut RunState, n: u64) {
        st.faults.frozen_frames += n;
        st.faults.degraded_segments += 1;
        st.frames_total += n;
    }

    /// Settles the session-wide energy components, assembles the report
    /// and mirrors its totals into the session's metrics.
    fn finish(self, mut st: RunState) -> PlaybackReport {
        let session = self.session;
        let cfg = &session.cfg;
        let wire_bytes = if !cfg.path.uses_network() {
            None
        } else if T::PER_SEGMENT_WIRE {
            // Wire bytes were accumulated per segment against that
            // segment's sampled link (loss inflation varies over the
            // run).
            Some(st.wire_bytes_total)
        } else {
            // Under injected loss the radio moves (and pays for) the
            // retransmitted bytes too.
            Some(cfg.network.wire_bytes(st.bytes_received))
        };
        let storage_bytes = if cfg.path.uses_network() {
            // Streamed segments are cached to storage (§3: "involved
            // mainly for temporary caching").
            st.bytes_received
        } else {
            st.storage_read_bytes
        };
        let duration_s = st.frames_total as f64 / FPS;
        let sas_scale = match session.tiles.as_deref() {
            // Multi-stream tile management costs a share of SAS's
            // client-control energy that grows with the tile count; a
            // single-tile grid degenerates to plain baseline playback
            // and pays nothing (which pins the 1×1 parity test).
            Some(tiles) => 0.5 * (1.0 - 1.0 / tiles.grid().len() as f64),
            None if cfg.path.uses_sas() => 1.0,
            None => 0.0,
        };
        account_session_tail(cfg, &mut st.ledger, duration_s, wire_bytes, storage_bytes, sas_scale);
        let report = PlaybackReport {
            ledger: st.ledger,
            frames_total: st.frames_total,
            fov_hits: st.checker.hits(),
            fov_misses: st.checker.misses(),
            fallback_frames: st.fallback_frames,
            rebuffer_events: st.rebuffer_events,
            rebuffer_time_s: st.rebuffer_time_s,
            bytes_received: st.bytes_received,
            duration_s,
            faults: st.faults,
        };
        let segments = self.server.catalog().segment_count() as u64;
        session.metrics.mirror(&report, segments, cfg.renderer, &session.pte_frame);
        report
    }
}

/// The session-wide energy components every playback flavour settles at
/// end of run: display scan, radio (when `wire_bytes` flowed), storage,
/// base compute (plus `sas_client_scale` of the SAS client-control
/// cost) and static DRAM — in the exact add order every pre-unification
/// loop used, so f64 accumulation is preserved bit-for-bit.
fn account_session_tail(
    cfg: &SessionConfig,
    ledger: &mut EnergyLedger,
    duration_s: f64,
    wire_bytes: Option<u64>,
    storage_bytes: u64,
    sas_client_scale: f64,
) {
    ledger.set_duration(duration_s);
    let d = &cfg.device;
    ledger.add(Component::Display, Activity::DisplayScan, d.display_energy(duration_s));
    ledger.add(
        Component::Memory,
        Activity::DisplayScan,
        d.dram_energy(d.display_dram_bytes(duration_s)),
    );
    if let Some(wire) = wire_bytes {
        ledger.add(Component::Network, Activity::NetworkRx, d.network_energy(wire, duration_s));
    }
    ledger.add(
        Component::Storage,
        Activity::StorageIo,
        d.storage_energy(storage_bytes, duration_s),
    );
    ledger.add(Component::Compute, Activity::Base, d.base_energy(duration_s));
    if sas_client_scale > 0.0 {
        ledger.add(
            Component::Compute,
            Activity::Base,
            sas_client_scale * d.sas_client_energy(duration_s),
        );
    }
    ledger.add(Component::Memory, Activity::Base, d.dram_static_energy(duration_s));
}

/// The pose used for stream selection at time `t`, per the configured
/// policy. Linear prediction extrapolates from the *past* only (the
/// client cannot peek ahead in its own IMU stream).
fn selection_pose(cfg: &SessionConfig, trace: &HeadTrace, t: f64) -> evr_math::EulerAngles {
    match cfg.selection {
        SelectionPolicy::CurrentPose => trace.pose_at(t),
        SelectionPolicy::LinearPrediction { lookahead_s } => {
            let dt = 0.1;
            let now = trace.pose_at(t);
            let before = trace.pose_at((t - dt).max(0.0));
            let yaw_vel = (now.yaw - before.yaw).wrapped().0 / dt;
            let pitch_vel = (now.pitch.0 - before.pitch.0) / dt;
            evr_math::EulerAngles::new(
                evr_math::Radians(now.yaw.0 + yaw_vel * lookahead_s),
                evr_math::Radians(now.pitch.0 + pitch_vel * lookahead_s),
                now.roll,
            )
            .normalized()
        }
    }
}

#[inline]
fn account_decode(d: &DeviceParams, ledger: &mut EnergyLedger, pixels: u64, bytes: u64) {
    ledger.add(Component::Compute, Activity::Decode, d.decode_energy(pixels, bytes));
    ledger.add(Component::Memory, Activity::Decode, d.dram_energy(d.decode_dram_bytes(pixels)));
}

/// The per-segment link model: the sampled fault-process state when a
/// time-varying link is attached, the session's static model otherwise.
/// A dead link keeps the base model's shape (fetches are failed by the
/// caller's up-check instead) so rebuffer math stays finite.
fn effective_network(base: &NetworkModel, link: Option<LinkState>) -> NetworkModel {
    match link {
        Some(l) if l.is_up() => {
            NetworkModel { bandwidth_bps: l.bandwidth_bps, rtt_s: l.rtt_s, loss_prob: l.loss_prob }
        }
        _ => *base,
    }
}
