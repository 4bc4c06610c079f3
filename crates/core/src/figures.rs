//! One function per table/figure of the paper's evaluation.
//!
//! Each function returns the figure's data series as plain structs; the
//! `evr-bench` binaries format them. Everything is produced by running
//! the actual system (ingestion, trace replay, accelerator models) — no
//! figure is a table lookup.

use evr_energy::{Activity, Component};
use evr_math::fixed::FxFormat;
use evr_math::EulerAngles;
use evr_projection::fixed::pixel_error_vs_reference;
use evr_projection::transform::render_panorama;
use evr_projection::{FilterMode, FovSpec, Projection, Viewport};
use evr_pte::systolic::hmp_network;
use evr_pte::{GpuModel, Pte, PteConfig, SystolicArray};
use evr_sas::SasConfig;
use evr_trace::analysis::{coverage_curve, duration_cdf, tracking_episodes};
use evr_video::library::VideoId;

use crate::experiment::{run_variant, run_variant_resilient, ExperimentConfig};
use crate::system::{EvrSystem, UseCase, Variant};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureScale {
    /// Users per video (paper: 59).
    pub users: u64,
    /// Seconds of content per video (scenes are 60 s).
    pub duration_s: f64,
    /// SAS configuration (controls analysis resolutions).
    pub sas: SasConfig,
    /// Worker threads for the user sweep; `0` means one per core
    /// (see [`evr_sched::resolve_workers`]).
    pub threads: usize,
}

impl FigureScale {
    /// Paper-scale: 59 users over the full 60 s scenes.
    pub fn paper() -> Self {
        FigureScale { users: 59, duration_s: 60.0, sas: SasConfig::default(), threads: 0 }
    }

    /// Reduced scale for smoke tests and CI.
    pub fn quick() -> Self {
        FigureScale { users: 6, duration_s: 6.0, sas: SasConfig::default(), threads: 0 }
    }

    fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig { users: self.users, threads: self.threads }
    }
}

/// Shared state for a figure-generation run: caches ingested systems so
/// figures that touch the same (video, SAS-config) pair — e.g. Figs. 3,
/// 12, 13 and 16 — pay for ingestion once.
#[derive(Debug)]
pub struct FigureContext {
    scale: FigureScale,
    cache: parking_lot::Mutex<std::collections::HashMap<String, std::sync::Arc<EvrSystem>>>,
}

impl FigureContext {
    /// Creates a context at the given scale.
    pub fn new(scale: FigureScale) -> Self {
        FigureContext { scale, cache: parking_lot::Mutex::new(std::collections::HashMap::new()) }
    }

    /// The run's scale.
    pub fn scale(&self) -> &FigureScale {
        &self.scale
    }

    /// Returns the (possibly cached) ingested system for `video` under
    /// `sas`.
    pub fn system(&self, video: VideoId, sas: SasConfig) -> std::sync::Arc<EvrSystem> {
        let key = format!("{video:?}|{sas:?}|{}", self.scale.duration_s);
        if let Some(sys) = self.cache.lock().get(&key) {
            return sys.clone();
        }
        let built = std::sync::Arc::new(EvrSystem::build(video, sas, self.scale.duration_s));
        self.cache.lock().insert(key, built.clone());
        built
    }
}

// --- Figure 3: device power characterisation --------------------------------

/// One bar group of Fig. 3a/3b.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// The video.
    pub video: VideoId,
    /// Average watts per component, in [`Component::ALL`] order.
    pub component_watts: [f64; 5],
    /// Total device watts.
    pub total_watts: f64,
    /// PT's share of compute+memory energy (Fig. 3b), in `[0, 1]`.
    pub pt_share: f64,
}

/// Fig. 3: baseline-playback power breakdown over the characterisation
/// videos (Elephant, Paris, RS, NYC, Rhino).
pub fn fig03(ctx: &FigureContext) -> Vec<Fig3Row> {
    let scale = ctx.scale();
    VideoId::CHARACTERIZATION
        .iter()
        .map(|&video| {
            let system = ctx.system(video, scale.sas);
            let agg = run_variant(
                &system,
                UseCase::OnlineStreaming,
                Variant::Baseline,
                &scale.experiment(),
            );
            let component_watts = Component::ALL.map(|c| agg.ledger.component_power(c));
            Fig3Row {
                video,
                component_watts,
                total_watts: agg.ledger.total_power(),
                pt_share: agg.ledger.pt_share_of_processing(),
            }
        })
        .collect()
}

// --- Figures 5 & 6: viewing-behaviour characterisation -----------------------

/// One subplot of Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Curve {
    /// The video.
    pub video: VideoId,
    /// `coverage_pct[x-1]` = % of frames where ≥1 of the top-`x` objects
    /// is inside users' viewing area.
    pub coverage_pct: Vec<f64>,
}

/// Fig. 5: object coverage of user viewing areas, per evaluation video.
pub fn fig05(ctx: &FigureContext) -> Vec<Fig5Curve> {
    let scale = ctx.scale();
    VideoId::EVALUATION
        .iter()
        .map(|&video| {
            let system = EvrSystem::build_traces_only(video, scale.duration_s);
            let traces: Vec<_> = (0..scale.users).map(|u| system.user_trace(u)).collect();
            let curve = coverage_curve(&traces, system.scene(), FovSpec::hdk2());
            Fig5Curve { video, coverage_pct: curve }
        })
        .collect()
}

/// One curve of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Curve {
    /// The video.
    pub video: VideoId,
    /// Duration thresholds, seconds.
    pub xs: Vec<f64>,
    /// % of total time in tracking episodes of at least `xs[i]` seconds.
    pub cumulative_pct: Vec<f64>,
}

/// Fig. 6: cumulative distribution of object-tracking durations.
pub fn fig06(ctx: &FigureContext) -> Vec<Fig6Curve> {
    let scale = ctx.scale();
    let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
    VideoId::EVALUATION
        .iter()
        .map(|&video| {
            let system = EvrSystem::build_traces_only(video, scale.duration_s);
            let mut totals = vec![0.0f64; xs.len()];
            let mut time = 0.0;
            for u in 0..scale.users {
                let trace = system.user_trace(u);
                let eps = tracking_episodes(&trace, system.scene(), evr_math::Radians(0.4));
                let cdf = duration_cdf(&eps, trace.duration(), &xs);
                for (t, c) in totals.iter_mut().zip(cdf) {
                    *t += c;
                }
                time += 1.0;
            }
            let cumulative_pct = totals.into_iter().map(|t| 100.0 * t / time).collect();
            Fig6Curve { video, xs: xs.clone(), cumulative_pct }
        })
        .collect()
}

// --- Figure 11: fixed-point format sweep -------------------------------------

/// One point of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Point {
    /// Total datapath width, bits.
    pub total_bits: u32,
    /// Integer bits (incl. sign).
    pub int_bits: u32,
    /// x-axis: integer bits as a percentage of the total.
    pub int_pct: f64,
    /// Mean normalised pixel error vs the `f64` reference.
    pub error: f64,
}

/// Fig. 11: pixel error across fixed-point representations. The paper's
/// chosen design `[28, 10]` sits below the 10⁻³ acceptability threshold.
pub fn fig11() -> Vec<Fig11Point> {
    let src = render_panorama(Projection::Erp, 192, 96, |d| {
        evr_projection::Rgb::new(
            ((d.x * 5.0).sin() * 100.0 + 128.0) as u8,
            ((d.y * 4.0).cos() * 100.0 + 128.0) as u8,
            ((d.z * 6.0).sin() * 100.0 + 128.0) as u8,
        )
    });
    let poses = [
        EulerAngles::default(),
        EulerAngles::from_degrees(75.0, 20.0, 0.0),
        EulerAngles::from_degrees(-140.0, -35.0, 0.0),
    ];
    let mut out = Vec::new();
    for &total in &[24u32, 28, 32, 40, 48, 56] {
        for &int_pct in &[10.0f64, 20.0, 30.0, 36.0, 40.0, 50.0] {
            let int_bits = ((total as f64 * int_pct / 100.0).round() as u32).clamp(2, total - 2);
            let Ok(format) = FxFormat::new(total, int_bits) else { continue };
            let error = pixel_error_vs_reference(
                format,
                Projection::Erp,
                FilterMode::Bilinear,
                FovSpec::hdk2(),
                Viewport::new(32, 32),
                &src,
                &poses,
            );
            out.push(Fig11Point {
                total_bits: total,
                int_bits,
                int_pct: 100.0 * int_bits as f64 / total as f64,
                error,
            });
        }
    }
    out
}

// --- Figure 12: energy savings of S / H / S+H --------------------------------

/// One bar group of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// The video.
    pub video: VideoId,
    /// Compute (SoC) energy savings of `[S, H, S+H]` vs baseline, `[0,1]`.
    pub compute_saving: [f64; 3],
    /// Device-level savings of `[S, H, S+H]` vs baseline.
    pub device_saving: [f64; 3],
}

/// Fig. 12: per-video energy savings of the EVR variants under online
/// streaming.
pub fn fig12(ctx: &FigureContext) -> Vec<Fig12Row> {
    let scale = ctx.scale();
    VideoId::EVALUATION
        .iter()
        .map(|&video| {
            let system = ctx.system(video, scale.sas);
            let cfg = scale.experiment();
            let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
            let mut compute = [0.0; 3];
            let mut device = [0.0; 3];
            for (i, v) in Variant::EVR.iter().enumerate() {
                let agg = run_variant(&system, UseCase::OnlineStreaming, *v, &cfg);
                compute[i] = agg.ledger.compute_saving_vs(&base.ledger);
                device[i] = agg.ledger.device_saving_vs(&base.ledger);
            }
            Fig12Row { video, compute_saving: compute, device_saving: device }
        })
        .collect()
}

// --- Figure 13: user experience & bandwidth ----------------------------------

/// One bar group of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// The video.
    pub video: VideoId,
    /// FPS drop vs baseline, percent.
    pub fps_drop_pct: f64,
    /// Bandwidth saving of S+H vs baseline, percent.
    pub bandwidth_saving_pct: f64,
    /// FOV-miss rate, percent (§8.2 text: 5.3%–12.0%, mean 7.7%).
    pub miss_rate_pct: f64,
}

/// Fig. 13: FPS drop and bandwidth savings of S+H.
pub fn fig13(ctx: &FigureContext) -> Vec<Fig13Row> {
    let scale = ctx.scale();
    VideoId::EVALUATION
        .iter()
        .map(|&video| {
            let system = ctx.system(video, scale.sas);
            let cfg = scale.experiment();
            let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
            let sh = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
            Fig13Row {
                video,
                fps_drop_pct: 100.0 * sh.fps_drop,
                bandwidth_saving_pct: 100.0 * (1.0 - sh.bytes_received / base.bytes_received),
                miss_rate_pct: 100.0 * sh.fov_miss_fraction,
            }
        })
        .collect()
}

// --- Figure 14: storage / energy trade-off -----------------------------------

/// One point of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Point {
    /// The video.
    pub video: VideoId,
    /// Object utilisation in `[0, 1]`.
    pub utilization: f64,
    /// FOV-store size relative to the original video.
    pub storage_overhead: f64,
    /// S+H device energy saving vs baseline, `[0, 1]`.
    pub energy_saving: f64,
}

/// Fig. 14: sweeping object utilisation (25/50/75/100%) trades FOV-store
/// size against device energy savings.
pub fn fig14(ctx: &FigureContext) -> Vec<Fig14Point> {
    let scale = ctx.scale();
    let mut out = Vec::new();
    for &video in &VideoId::EVALUATION {
        let full = ctx.system(video, scale.sas);
        let cfg = scale.experiment();
        let base = run_variant(&full, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
        for &utilization in &[0.25, 0.5, 0.75, 1.0] {
            // Derive the reduced store from the fully ingested catalog;
            // the baseline is utilisation-independent.
            let system = full.with_utilization(utilization);
            let sh = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
            out.push(Fig14Point {
                video,
                utilization,
                storage_overhead: system.server().catalog().storage_overhead(),
                energy_saving: sh.ledger.device_saving_vs(&base.ledger),
            });
        }
    }
    out
}

// --- Figure 15: live streaming & offline playback ----------------------------

/// One bar group of Fig. 15.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// The video.
    pub video: VideoId,
    /// The use-case (live or offline).
    pub use_case: UseCase,
    /// H's compute (SoC) energy saving vs the same use-case's baseline.
    pub compute_saving: f64,
    /// H's device-level saving.
    pub device_saving: f64,
}

/// Fig. 15: H-only savings in the live-streaming and offline-playback
/// use-cases.
pub fn fig15(ctx: &FigureContext) -> Vec<Fig15Row> {
    let scale = ctx.scale();
    let mut out = Vec::new();
    for &use_case in &[UseCase::LiveStreaming, UseCase::OfflinePlayback] {
        for &video in &VideoId::EVALUATION {
            let system = ctx.system(video, scale.sas);
            let cfg = scale.experiment();
            let base = run_variant(&system, use_case, Variant::Baseline, &cfg);
            let h = run_variant(&system, use_case, Variant::H, &cfg);
            out.push(Fig15Row {
                video,
                use_case,
                compute_saving: h.ledger.compute_saving_vs(&base.ledger),
                device_saving: h.ledger.device_saving_vs(&base.ledger),
            });
        }
    }
    out
}

// --- Figure 16: SAS vs on-device head-motion prediction ----------------------

/// One bar group of Fig. 16.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Row {
    /// The video.
    pub video: VideoId,
    /// S+H device saving vs baseline.
    pub s_plus_h: f64,
    /// Perfect on-device HMP (with its inference energy) device saving.
    pub perfect_hmp: f64,
    /// Perfect HMP with zero overhead (upper bound).
    pub ideal_hmp: f64,
}

/// CPU-side input preparation (panorama downsampling / feature staging)
/// for each HMP inference, watts — charged on top of the systolic-array
/// energy in the Fig. 16 comparison.
pub const HMP_PREP_W: f64 = 0.13;

/// Fig. 16: EVR's server-side semantics vs a client-side DNN predictor.
pub fn fig16(ctx: &FigureContext) -> Vec<Fig16Row> {
    let scale = ctx.scale();
    let array = SystolicArray::mobile_24x24();
    let network = hmp_network();
    let hmp_power = array.average_power(&network, evr_sas::ingest::FPS);
    // Activation/weight DRAM traffic at the inference rate.
    let act_bytes: u64 = network.iter().map(|l| l.output_bytes()).sum();
    let dram_per_s = act_bytes as f64 * 2.0 * evr_sas::ingest::FPS;

    VideoId::EVALUATION
        .iter()
        .map(|&video| {
            let system = ctx.system(video, scale.sas);
            let cfg = scale.experiment();
            let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
            let sh = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
            let ideal = run_variant(&system, UseCase::OnlineStreaming, Variant::IdealHmp, &cfg);

            // Perfect HMP = ideal playback + prediction overhead.
            let mut perfect = ideal.clone();
            let dt = perfect.ledger.duration();
            perfect.ledger.add(
                Component::Compute,
                Activity::HeadMotionPrediction,
                (hmp_power + HMP_PREP_W) * dt,
            );
            perfect.ledger.add(
                Component::Memory,
                Activity::HeadMotionPrediction,
                evr_energy::DeviceParams::default().dram_energy((dram_per_s * dt) as u64),
            );

            Fig16Row {
                video,
                s_plus_h: sh.ledger.device_saving_vs(&base.ledger),
                perfect_hmp: perfect.ledger.device_saving_vs(&base.ledger),
                ideal_hmp: ideal.ledger.device_saving_vs(&base.ledger),
            }
        })
        .collect()
}

// --- Figure 17: PTE generality (360° quality assessment) ---------------------

/// One bar of Fig. 17.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Row {
    /// Assessment output resolution.
    pub resolution: (u32, u32),
    /// Projection method of the content.
    pub projection: Projection,
    /// Energy reduction of the PTE-augmented assessor vs the GPU one, %.
    pub reduction_pct: f64,
}

/// Fixed GPU time charged per assessed frame at full active power
/// (kernel launch, context switch, pipeline fill — the poorly-amortised
/// overhead that makes the GPU inefficient on small frames), seconds.
const GPU_SETUP_S: f64 = 0.0073;
/// CPU energy of the metric computation (PSNR + SSIM) per pixel, joules —
/// identical on both systems, so it only dilutes the reduction.
const METRIC_J_PER_PX: f64 = 25.0e-9;
/// Energy to decode the assessed 4K source frame (identical on both
/// systems), joules.
const DECODE_J_PER_FRAME: f64 = 0.012;

/// Fig. 17: energy reduction of using the PTE for real-time 360° video
/// quality assessment, across output resolutions and projections (§8.6).
pub fn fig17() -> Vec<Fig17Row> {
    let gpu = GpuModel::default();
    let resolutions = [(960u32, 1080u32), (1080, 1200), (1280, 1440), (1440, 1600)];
    let mut out = Vec::new();
    for &(w, h) in &resolutions {
        for &projection in &Projection::ALL {
            let px = w as u64 * h as u64;
            let metric_j = px as f64 * METRIC_J_PER_PX;

            let gpu_pt = gpu.pt_frame(px).energy_j + gpu.active_power_w * GPU_SETUP_S;
            let e_gpu = gpu_pt + metric_j + DECODE_J_PER_FRAME;

            let pte = Pte::new(
                PteConfig::prototype()
                    .with_projection(projection)
                    .with_viewport(Viewport::new(w, h)),
            );
            let stats = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
            let e_pte = stats.energy_j() + metric_j + DECODE_J_PER_FRAME;

            out.push(Fig17Row {
                resolution: (w, h),
                projection,
                reduction_pct: 100.0 * (e_gpu - e_pte) / e_gpu,
            });
        }
    }
    out
}

// --- Tiled multi-rate variants (T / T+H) -------------------------------------

/// One row of the tiled-variant table (README variant table): one video
/// × one tiled variant, clean and under a mild deterministic fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledVariantRow {
    /// The video.
    pub video: VideoId,
    /// `T` or `T+H`.
    pub variant: Variant,
    /// Clean bandwidth saving vs the plain baseline, `[0, 1]`.
    pub bandwidth_saving: f64,
    /// Clean device-energy saving vs the plain baseline.
    pub device_saving: f64,
    /// Bandwidth saving under the fault plan, vs the equally faulted
    /// baseline.
    pub faulted_bandwidth_saving: f64,
    /// Device-energy saving under the fault plan.
    pub faulted_device_saving: f64,
    /// Fraction of segments degraded under the fault plan (per-tile
    /// fault isolation keeps this well short of freezing).
    pub faulted_degraded_fraction: f64,
}

/// The mild deterministic fault plan behind the faulted columns of
/// [`tiled_variants_table`]: one dropped request and one corrupt
/// segment, no link or server chaos.
pub fn tiled_mild_faults() -> evr_faults::FaultSetup {
    evr_faults::FaultSetup::seeded(17).with_plan(
        evr_faults::FaultPlan::none()
            .with(evr_faults::FaultEvent::RequestDrop { segment: 1 })
            .with(evr_faults::FaultEvent::SegmentCorruption { segment: 2 }),
    )
}

/// The tiled-variant table: `T` and `T+H` vs the plain baseline on
/// bandwidth and device energy, clean and under [`tiled_mild_faults`].
///
/// Reproduces the paper's §2 observation from the *energy* side: tiling
/// cuts wire bytes (out-of-view tiles ride a downsampled coarse rung)
/// but barely moves device energy because projective transformation
/// still runs per frame — only the `+H` accelerator swap recovers it.
pub fn tiled_variants_table(ctx: &FigureContext) -> Vec<TiledVariantRow> {
    let scale = ctx.scale();
    let cfg = scale.experiment();
    let setup = tiled_mild_faults();
    let mut out = Vec::new();
    for &video in &VideoId::EVALUATION {
        let system = ctx.system(video, scale.sas);
        let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
        let fbase = run_variant_resilient(
            &system,
            UseCase::OnlineStreaming,
            Variant::Baseline,
            &cfg,
            &setup,
        );
        for variant in Variant::TILED {
            let clean = run_variant(&system, UseCase::OnlineStreaming, variant, &cfg);
            let faulted =
                run_variant_resilient(&system, UseCase::OnlineStreaming, variant, &cfg, &setup);
            out.push(TiledVariantRow {
                video,
                variant,
                bandwidth_saving: 1.0 - clean.bytes_received / base.bytes_received,
                device_saving: clean.ledger.device_saving_vs(&base.ledger),
                faulted_bandwidth_saving: 1.0 - faulted.bytes_received / fbase.bytes_received,
                faulted_device_saving: faulted.ledger.device_saving_vs(&fbase.ledger),
                faulted_degraded_fraction: faulted.degraded_fraction,
            });
        }
    }
    out
}

// --- §7.2 prototype table -----------------------------------------------------

/// The PTE prototype's headline numbers (§7.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtoPteRow {
    /// PTUs instantiated.
    pub ptus: u32,
    /// Sustained FPS at the prototype output resolution.
    pub fps: f64,
    /// Power while rendering flat-out, watts.
    pub power_w: f64,
    /// DRAM read traffic per frame, bytes.
    pub dram_read_bytes: u64,
}

/// §7.2: prototype characterisation across PTU counts (2 PTUs is the
/// paper's build: ~50 FPS at 2560×1440, ~194 mW).
pub fn proto_pte() -> Vec<ProtoPteRow> {
    [1u32, 2, 4]
        .iter()
        .map(|&ptus| {
            let pte = Pte::new(PteConfig::prototype().with_ptus(ptus));
            let stats = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
            ProtoPteRow {
                ptus,
                fps: stats.fps(),
                power_w: stats.power_watts(),
                dram_read_bytes: stats.dram_read_bytes,
            }
        })
        .collect()
}

impl EvrSystem {
    /// Builds a system for trace-only analytics (Figs. 5/6): skips the
    /// expensive FOV-video pre-rendering by ingesting with zero object
    /// utilisation.
    pub fn build_traces_only(video: VideoId, duration_s: f64) -> EvrSystem {
        let mut sas = SasConfig::tiny_for_tests();
        sas.object_utilization = 0.0;
        // Trace analytics never touch pixels; shrink the rasters further
        // (a 6×3 grid keeps the tiles 8×8, so the config validates).
        sas.analysis_src = (48, 24);
        sas.analysis_fov = (16, 16);
        sas.tile_grid = evr_sas::TileGrid { cols: 6, rows: 3 };
        EvrSystem::build(video, sas, duration_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_chooses_28_10() {
        let points = fig11();
        let chosen = points
            .iter()
            .find(|p| p.total_bits == 28 && p.int_bits == 10)
            .expect("the paper's design point is swept");
        assert!(chosen.error < 1e-3, "[28,10] error {}", chosen.error);
        // Narrow-integer designs blow past the threshold.
        let narrow = points
            .iter()
            .find(|p| p.total_bits == 28 && p.int_pct < 12.0)
            .expect("a narrow-integer point exists");
        assert!(narrow.error > 1e-3, "narrow error {}", narrow.error);
    }

    #[test]
    fn fig17_shapes() {
        let rows = fig17();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.reduction_pct > 0.0, "{r:?}");
            assert!(r.reduction_pct < 70.0, "{r:?}");
        }
        // Reduction shrinks as resolution grows (GPU amortises), per the
        // paper's observation.
        let at = |res: (u32, u32)| {
            rows.iter().filter(|r| r.resolution == res).map(|r| r.reduction_pct).sum::<f64>() / 3.0
        };
        assert!(at((960, 1080)) > at((1440, 1600)));
    }

    #[test]
    fn proto_pte_matches_paper_headline() {
        let rows = proto_pte();
        let two = rows.iter().find(|r| r.ptus == 2).unwrap();
        assert!((45.0..60.0).contains(&two.fps), "fps {}", two.fps);
        assert!((0.15..0.25).contains(&two.power_w), "power {}", two.power_w);
    }

    #[test]
    fn quick_fig5_has_high_coverage() {
        let mut scale = FigureScale::quick();
        scale.users = 3;
        scale.duration_s = 5.0;
        let curves = fig05(&FigureContext::new(scale));
        assert_eq!(curves.len(), 5);
        for c in &curves {
            assert_eq!(c.coverage_pct.len(), c.video.object_count());
            assert!(*c.coverage_pct.last().unwrap() >= c.coverage_pct[0]);
        }
    }
}
