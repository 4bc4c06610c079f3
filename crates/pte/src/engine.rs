//! The PTE engine model: cycle accounting, memory traffic and energy for
//! whole frames, plus bit-exact rendering through the fixed-point
//! datapath.

use evr_math::EulerAngles;
use evr_projection::filter::EdgeMode;
use evr_projection::fixed::FixedTransformer;
use evr_projection::lut::SamplingMapCache;
use evr_projection::transform::Transformer;
use evr_projection::{FilterMode, ImageBuffer, PixelSource};

use crate::config::PteConfig;
use crate::energy::{OpCounts, PteEnergyParams};
use crate::mem::PmemCache;

/// Fraction of a block-fill latency exposed as pipeline stall; the rest
/// is hidden by the prefetching DMA (double-buffered block fills).
const EXPOSED_FILL_FRACTION: f64 = 0.2;

/// Per-frame statistics reported by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStats {
    /// Output pixels produced.
    pub out_pixels: u64,
    /// Cycles spent issuing pixels (pipelined, `pixels / num_ptus`).
    pub active_cycles: u64,
    /// Cycles stalled on P-MEM line fills.
    pub stall_cycles: u64,
    /// DRAM bytes read (input line fills).
    pub dram_read_bytes: u64,
    /// DRAM bytes written (output frame).
    pub dram_write_bytes: u64,
    /// P-MEM line-buffer hits.
    pub pmem_hits: u64,
    /// P-MEM line-buffer misses.
    pub pmem_misses: u64,
    /// Dynamic datapath energy, joules.
    pub compute_energy_j: f64,
    /// SRAM access energy, joules.
    pub sram_energy_j: f64,
    /// DRAM access energy, joules.
    pub dram_energy_j: f64,
    /// Leakage energy over the frame time, joules.
    pub leakage_energy_j: f64,
    clock_hz: f64,
}

impl FrameStats {
    /// Total cycles for the frame.
    pub fn total_cycles(&self) -> u64 {
        self.active_cycles + self.stall_cycles
    }

    /// Frame latency in seconds.
    pub fn frame_time_s(&self) -> f64 {
        self.total_cycles() as f64 / self.clock_hz
    }

    /// Sustained frame rate if frames are produced back to back
    /// (0 for a degenerate zero-cycle frame rather than infinity).
    pub fn fps(&self) -> f64 {
        let t = self.frame_time_s();
        if t > 0.0 {
            1.0 / t
        } else {
            0.0
        }
    }

    /// Total energy for the frame, joules.
    pub fn energy_j(&self) -> f64 {
        self.compute_energy_j + self.sram_energy_j + self.dram_energy_j + self.leakage_energy_j
    }

    /// Average power while producing this frame, watts (0 for a
    /// degenerate zero-cycle frame).
    pub fn power_watts(&self) -> f64 {
        let t = self.frame_time_s();
        if t > 0.0 {
            self.energy_j() / t
        } else {
            0.0
        }
    }

    /// Energy at a fixed display rate: the engine renders the frame, then
    /// idles (leakage only) until the next frame slot. Returns the energy
    /// of one `1/fps`-second slot, or `None` when the engine cannot
    /// sustain `fps` (or `fps` is not a positive rate) — experiment
    /// drivers sweep display rates, and an unsustainable point is an
    /// answer, not a crash.
    pub fn energy_at_fps(&self, fps: f64, leakage_w: f64) -> Option<f64> {
        if !(fps > 0.0 && fps.is_finite()) {
            return None;
        }
        let slot = 1.0 / fps;
        let busy = self.frame_time_s();
        if busy > slot {
            return None;
        }
        Some(self.energy_j() + (slot - busy) * leakage_w)
    }
}

/// The PTE engine.
///
/// Two evaluation entry points:
///
/// * [`Pte::analyze_frame`] — runs only the coordinate stream against the
///   line-buffer model: cycles, traffic and energy, no pixels. Used by
///   the experiment drivers where thousands of frames are simulated.
/// * [`Pte::render_frame`] — additionally produces the output frame
///   through the bit-exact fixed-point datapath.
#[derive(Debug, Clone)]
pub struct Pte {
    config: PteConfig,
    energy: PteEnergyParams,
    metrics: PteMetrics,
    lut: SamplingMapCache,
}

/// Pre-resolved PTU cycle/stall/traffic counters for an observed engine.
#[derive(Debug, Clone, Default)]
struct PteMetrics {
    frames: evr_obs::Counter,
    active_cycles: evr_obs::Counter,
    stall_cycles: evr_obs::Counter,
    pmem_hits: evr_obs::Counter,
    pmem_misses: evr_obs::Counter,
    dram_read_bytes: evr_obs::Counter,
    dram_write_bytes: evr_obs::Counter,
    lut_hits: evr_obs::Counter,
    lut_misses: evr_obs::Counter,
    render_seconds: evr_obs::Histogram,
}

impl PteMetrics {
    fn resolve(observer: &evr_obs::Observer) -> Self {
        use evr_obs::names;
        PteMetrics {
            frames: observer.counter(names::PTE_FRAMES),
            active_cycles: observer.counter(names::PTE_ACTIVE_CYCLES),
            stall_cycles: observer.counter(names::PTE_STALL_CYCLES),
            pmem_hits: observer.counter(names::PTE_PMEM_HITS),
            pmem_misses: observer.counter(names::PTE_PMEM_MISSES),
            dram_read_bytes: observer.counter(names::PTE_DRAM_READ_BYTES),
            dram_write_bytes: observer.counter(names::PTE_DRAM_WRITE_BYTES),
            lut_hits: observer.counter(names::PT_LUT_HITS),
            lut_misses: observer.counter(names::PT_LUT_MISSES),
            render_seconds: observer
                .histogram(names::PT_RENDER_SECONDS, &evr_obs::LATENCY_BOUNDS_S),
        }
    }

    fn record_lut(&self, hit: bool) {
        if hit {
            self.lut_hits.inc();
        } else {
            self.lut_misses.inc();
        }
    }

    fn record(&self, stats: &FrameStats) {
        self.frames.inc();
        self.active_cycles.add(stats.active_cycles);
        self.stall_cycles.add(stats.stall_cycles);
        self.pmem_hits.add(stats.pmem_hits);
        self.pmem_misses.add(stats.pmem_misses);
        self.dram_read_bytes.add(stats.dram_read_bytes);
        self.dram_write_bytes.add(stats.dram_write_bytes);
    }
}

impl Pte {
    /// Creates an engine with default (paper-calibrated) energy parameters.
    ///
    /// Coordinate maps are served from the process-wide shared
    /// [`SamplingMapCache`], so engines with the same configuration reuse
    /// each other's mapping work.
    pub fn new(config: PteConfig) -> Self {
        Pte {
            config,
            energy: PteEnergyParams::default(),
            metrics: PteMetrics::default(),
            lut: SamplingMapCache::shared(),
        }
    }

    /// Replaces the sampling-map cache (default: the process-wide shared
    /// cache). Tests use a private cache so hit/miss counts are observed
    /// in isolation.
    pub fn with_lut_cache(mut self, lut: SamplingMapCache) -> Self {
        self.lut = lut;
        self
    }

    /// The sampling-map cache in use.
    pub fn lut_cache(&self) -> &SamplingMapCache {
        &self.lut
    }

    /// Routes per-frame PTU cycle, stall, P-MEM and DRAM statistics into
    /// `observer` (`evr_pte_*` names) on every frame analysis. A no-op
    /// observer detaches the counters again.
    pub fn set_observer(&mut self, observer: &evr_obs::Observer) {
        self.metrics = if observer.is_enabled() {
            PteMetrics::resolve(observer)
        } else {
            PteMetrics::default()
        };
    }

    /// The configuration.
    pub fn config(&self) -> &PteConfig {
        &self.config
    }

    /// The energy parameters.
    pub fn energy_params(&self) -> &PteEnergyParams {
        &self.energy
    }

    /// Analyzes one frame: drives the output scan's source-line access
    /// pattern through the P-MEM model and accounts cycles and energy.
    pub fn analyze_frame(
        &self,
        src_width: u32,
        src_height: u32,
        orientation: EulerAngles,
    ) -> FrameStats {
        self.analyze_frame_strided(src_width, src_height, orientation, 1)
    }

    /// Like [`Pte::analyze_frame`] but sampling every `stride`-th pixel in
    /// each axis and scaling the counts, trading line-index fidelity for
    /// speed in multi-thousand-frame experiments.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn analyze_frame_strided(
        &self,
        src_width: u32,
        src_height: u32,
        orientation: EulerAngles,
        stride: u32,
    ) -> FrameStats {
        assert!(
            (1..=8).contains(&stride),
            "stride must be in 1..=8 (beyond 8 the sampling would skip whole P-MEM blocks)"
        );
        let cfg = &self.config;
        // The f64 reference supplies the coordinate stream; its addresses
        // differ from the fixed datapath by at most one texel, which is
        // immaterial for block-granular traffic. The stream itself comes
        // from the sampling-map cache: experiment drivers analyze
        // thousands of frames at a handful of (snapped) orientations, so
        // the mapping usually runs once per pose, not once per frame.
        let mapper = Transformer::new(cfg.projection, cfg.filter, cfg.fov, cfg.viewport);
        let (map, lut_hit) = self.lut.reference_map(&mapper, orientation, stride);
        self.metrics.record_lut(lut_hit);
        let coords = map.as_reference().expect("reference lookup yields a reference map");
        self.analyze_coords(src_width, src_height, stride, coords.iter().copied())
    }

    /// Replays one coordinate stream (already strided) against the P-MEM
    /// model and accounts cycles and energy — the shared analysis core
    /// behind [`Pte::analyze_frame_strided`] and [`Pte::render_frame`].
    fn analyze_coords(
        &self,
        src_width: u32,
        src_height: u32,
        stride: u32,
        coords: impl Iterator<Item = (f64, f64)>,
    ) -> FrameStats {
        let cfg = &self.config;
        let mut pmem = PmemCache::new(cfg.pmem_bytes, src_width, src_height);
        let edge = EdgeMode::for_projection(cfg.projection);
        let scale = (stride * stride) as u64;

        let mut sampled_misses = 0u64;
        let mut sampled_hits = 0u64;
        for (u, v) in coords {
            let x = ((u * src_width as f64) as u32).min(src_width - 1);
            let y = ((v * src_height as f64) as u32).min(src_height - 1);
            let mut touch = |xx: u32, yy: u32| {
                let hit = pmem.access(xx, yy);
                sampled_hits += hit as u64;
                sampled_misses += !hit as u64;
            };
            touch(x, y);
            if cfg.filter == FilterMode::Bilinear {
                // Out-of-range bilinear neighbours resolve through the
                // projection's edge mode, exactly like the datapath's
                // samplers: ERP wraps in longitude, so the right
                // neighbour of the last column is column 0. Clamping
                // here undercounted P-MEM traffic at yaw ≈ ±180°.
                let (x1, _) = edge.resolve(x as i64 + 1, y as i64, src_width, src_height);
                let (_, y1) = edge.resolve(x as i64, y as i64 + 1, src_width, src_height);
                touch(x1, y);
                touch(x, y1);
                touch(x1, y1);
            }
        }
        // Scale sampled counts back to full-frame estimates. Hits scale
        // with pixel count; misses are block-granular and do NOT scale
        // with stride (the same blocks get filled regardless of sampling
        // rate, as long as stride stays below the block size).
        let out_pixels = cfg.viewport.pixels();
        let pmem_misses = sampled_misses;
        let pmem_hits = sampled_hits * scale;
        let dram_read_bytes = pmem.stats().dram_bytes;
        let dram_write_bytes = out_pixels * 3;

        let active_cycles = out_pixels.div_ceil(cfg.num_ptus as u64);
        // Block fills mostly overlap compute via prefetch; the exposed
        // fraction serializes on the DMA port.
        let stall_cycles = pmem_misses
            * PmemCache::fill_stall_cycles(cfg.dma_bytes_per_cycle, EXPOSED_FILL_FRACTION);

        let ops = OpCounts::for_pipeline(cfg.projection, cfg.filter);
        let compute_energy_j = ops.compute_energy(out_pixels, &self.energy);
        let sram_energy_j = ops.sram_energy(out_pixels, &self.energy);
        let dram_energy_j = (dram_read_bytes + dram_write_bytes) as f64 * self.energy.dram_byte_j;
        let time_s = (active_cycles + stall_cycles) as f64 / cfg.clock_hz;
        let leakage_energy_j = self.energy.leakage_w * time_s;

        let stats = FrameStats {
            out_pixels,
            active_cycles,
            stall_cycles,
            dram_read_bytes,
            dram_write_bytes,
            pmem_hits,
            pmem_misses,
            compute_energy_j,
            sram_energy_j,
            dram_energy_j,
            leakage_energy_j,
            clock_hz: cfg.clock_hz,
        };
        self.metrics.record(&stats);
        stats
    }

    /// Renders one frame bit-exactly through the fixed-point datapath and
    /// returns it with the frame statistics.
    ///
    /// Rendering and traffic analysis consume one shared coordinate
    /// stream (the cached fixed-point sampling map), so the mapping runs
    /// once per pose instead of twice per frame. The analysis addresses
    /// therefore come from the fixed datapath rather than the `f64`
    /// reference — a difference of at most one texel, immaterial at
    /// block granularity.
    pub fn render_frame(
        &self,
        src: &impl PixelSource,
        orientation: EulerAngles,
    ) -> (ImageBuffer, FrameStats) {
        let start = std::time::Instant::now();
        let cfg = &self.config;
        let fixed =
            FixedTransformer::new(cfg.format, cfg.projection, cfg.filter, cfg.fov, cfg.viewport);
        let (map, lut_hit) = self.lut.fixed_map(&fixed, orientation);
        self.metrics.record_lut(lut_hit);
        let (_, coords) = map.as_fixed().expect("fixed lookup yields a fixed map");
        let image = fixed.render_with_map(src, coords);
        let stats = self.analyze_coords(
            src.width(),
            src.height(),
            1,
            coords.iter().map(|&(u, v)| (fixed.to_f64(u), fixed.to_f64(v))),
        );
        self.metrics.render_seconds.observe(start.elapsed().as_secs_f64());
        (image, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::BLOCK_BYTES;
    use evr_projection::lut::LutStats;
    use evr_projection::{FovSpec, Projection, Rgb, Viewport};

    fn prototype() -> Pte {
        Pte::new(PteConfig::prototype())
    }

    #[test]
    fn observed_engine_accumulates_cycle_stats() {
        let obs = evr_obs::Observer::enabled();
        let mut pte = prototype();
        pte.set_observer(&obs);
        let a = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        let b = pte.analyze_frame_strided(3840, 2160, EulerAngles::from_degrees(30.0, 5.0, 0.0), 4);
        use evr_obs::names;
        assert_eq!(obs.counter(names::PTE_FRAMES).get(), 2);
        assert_eq!(obs.counter(names::PTE_ACTIVE_CYCLES).get(), a.active_cycles + b.active_cycles);
        assert_eq!(obs.counter(names::PTE_STALL_CYCLES).get(), a.stall_cycles + b.stall_cycles);
        assert_eq!(obs.counter(names::PTE_PMEM_MISSES).get(), a.pmem_misses + b.pmem_misses);
        assert_eq!(
            obs.counter(names::PTE_DRAM_READ_BYTES).get(),
            a.dram_read_bytes + b.dram_read_bytes
        );
        // Detaching stops the accumulation.
        pte.set_observer(&evr_obs::Observer::noop());
        let _ = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        assert_eq!(obs.counter(names::PTE_FRAMES).get(), 2);
    }

    #[test]
    fn prototype_sustains_50_fps_at_1440p() {
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        assert!(stats.fps() > 45.0, "fps = {}", stats.fps());
        assert!(stats.fps() < 60.0, "fps = {}", stats.fps());
    }

    #[test]
    fn prototype_power_matches_post_layout_194mw() {
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        let p = stats.power_watts();
        assert!((0.15..=0.25).contains(&p), "power {p} W should be near the paper's 194 mW");
    }

    #[test]
    fn stalls_are_a_small_fraction_of_cycles() {
        // Scan coherence means line fills hide behind thousands of hits.
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        assert!(stats.stall_cycles * 10 < stats.active_cycles);
    }

    #[test]
    fn dram_reads_bounded_by_source_size() {
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        // Can't read more than ~the touched span of the source per frame;
        // certainly not more than a whole 4K frame.
        assert!(stats.dram_read_bytes <= 3840 * 2160 * 3);
        assert!(stats.dram_read_bytes > 0);
    }

    #[test]
    fn more_ptus_increase_throughput() {
        let one = Pte::new(PteConfig::prototype().with_ptus(1)).analyze_frame_strided(
            3840,
            2160,
            EulerAngles::default(),
            4,
        );
        let four = Pte::new(PteConfig::prototype().with_ptus(4)).analyze_frame_strided(
            3840,
            2160,
            EulerAngles::default(),
            4,
        );
        assert!(four.fps() > 1.9 * one.fps());
    }

    #[test]
    fn render_frame_produces_pixels_and_stats() {
        let cfg = PteConfig::prototype().with_viewport(Viewport::new(16, 16));
        let pte = Pte::new(cfg);
        let src = ImageBuffer::from_fn(64, 32, |x, _| Rgb::new((x * 4) as u8, 0, 0));
        let (img, stats) = pte.render_frame(&src, EulerAngles::default());
        assert_eq!(img.width(), 16);
        assert_eq!(stats.out_pixels, 256);
        assert!(stats.energy_j() > 0.0);
    }

    #[test]
    fn energy_at_fps_adds_idle_leakage() {
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        let e30 = stats
            .energy_at_fps(30.0, PteEnergyParams::default().leakage_w)
            .expect("prototype sustains 30 FPS");
        assert!(e30 > stats.energy_j());
        // Average power at 30 FPS is below the flat-out power.
        assert!(e30 * 30.0 < stats.power_watts());
    }

    #[test]
    fn unsustainable_fps_is_none_not_a_panic() {
        let stats = prototype().analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        assert_eq!(stats.energy_at_fps(1e9, 0.1), None);
        assert_eq!(stats.energy_at_fps(0.0, 0.1), None);
        assert_eq!(stats.energy_at_fps(-30.0, 0.1), None);
        assert_eq!(stats.energy_at_fps(f64::NAN, 0.1), None);
    }

    #[test]
    fn erp_seam_counts_wrapped_block_traffic() {
        // A 1×1 viewport with a 1° FOV maps to exactly one bilinear
        // sample. At yaw 179.3°, u = 0.5 + 179.3/360 lands the sample in
        // the last source column, so its right neighbour wraps across
        // the ERP seam to column 0 — a second P-MEM block. The old
        // analyzer clamped the neighbour to the last column and saw only
        // one block fill.
        let cfg = PteConfig::prototype()
            .with_viewport(Viewport::new(1, 1))
            .with_fov(FovSpec::from_degrees(1.0, 1.0));
        let pte = Pte::new(cfg).with_lut_cache(SamplingMapCache::new());
        let stats = pte.analyze_frame(256, 128, EulerAngles::from_degrees(179.3, 0.0, 0.0));
        assert_eq!(stats.pmem_misses, 2, "seam sample must fill both edge blocks");
        assert_eq!(stats.dram_read_bytes, 2 * BLOCK_BYTES as u64);
        // Away from the seam the same setup touches a single block.
        let stats = pte.analyze_frame(256, 128, EulerAngles::from_degrees(10.0, 0.0, 0.0));
        assert_eq!(stats.pmem_misses, 1);
    }

    #[test]
    fn repeated_analysis_hits_the_lut_without_changing_stats() {
        let pte = prototype().with_lut_cache(SamplingMapCache::new());
        let a = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        let b = pte.analyze_frame_strided(3840, 2160, EulerAngles::default(), 4);
        assert_eq!(a, b, "a cached map must reproduce the frame stats exactly");
        assert_eq!(pte.lut_cache().stats(), LutStats { hits: 1, misses: 1 });
    }

    #[test]
    fn observer_sees_lut_and_render_metrics() {
        let obs = evr_obs::Observer::enabled();
        let mut pte = Pte::new(PteConfig::prototype().with_viewport(Viewport::new(16, 16)))
            .with_lut_cache(SamplingMapCache::new());
        pte.set_observer(&obs);
        let src = ImageBuffer::from_fn(64, 32, |x, _| Rgb::new((x * 4) as u8, 0, 0));
        let _ = pte.render_frame(&src, EulerAngles::default());
        let _ = pte.render_frame(&src, EulerAngles::default());
        use evr_obs::names;
        assert_eq!(obs.counter(names::PT_LUT_MISSES).get(), 1);
        assert_eq!(obs.counter(names::PT_LUT_HITS).get(), 1);
        let h = obs.histogram(names::PT_RENDER_SECONDS, &evr_obs::LATENCY_BOUNDS_S).snapshot();
        assert_eq!(h.count, 2);
    }

    #[test]
    fn render_frame_stats_match_strided_analysis_shape() {
        // The single-pass render analysis replays fixed-point addresses;
        // it must stay within a texel of the f64 analysis, i.e. identical
        // block traffic for an interior pose.
        let cfg = PteConfig::prototype().with_viewport(Viewport::new(32, 32));
        let pte = Pte::new(cfg).with_lut_cache(SamplingMapCache::new());
        let src = ImageBuffer::from_fn(256, 128, |x, y| Rgb::new(x as u8, y as u8, 0));
        let (_, rendered) = pte.render_frame(&src, EulerAngles::default());
        let analyzed = pte.analyze_frame(256, 128, EulerAngles::default());
        assert_eq!(rendered.out_pixels, analyzed.out_pixels);
        assert_eq!(rendered.active_cycles, analyzed.active_cycles);
        assert_eq!(rendered.dram_write_bytes, analyzed.dram_write_bytes);
    }

    #[test]
    fn eac_costs_more_energy_than_cmp() {
        let run = |p: Projection| {
            Pte::new(PteConfig::prototype().with_projection(p))
                .analyze_frame_strided(3840, 2160, EulerAngles::default(), 4)
                .compute_energy_j
        };
        assert!(run(Projection::Eac) > run(Projection::Cmp));
    }
}
