//! Smoke tests for the figure generators at reduced scale: every series
//! must exist and have the paper's qualitative shape. The full-scale
//! numbers live in EXPERIMENTS.md.

use evr_core::figures::{
    fig03, fig05, fig12, fig13, fig14, fig15, tiled_variants_table, FigureContext, FigureScale,
};
use evr_core::{UseCase, Variant};
use evr_sas::SasConfig;

fn quick_ctx() -> FigureContext {
    let mut scale = FigureScale::quick();
    scale.users = 3;
    scale.duration_s = 3.0;
    scale.sas = SasConfig::tiny_for_tests();
    FigureContext::new(scale)
}

#[test]
fn fig03_shape() {
    let rows = fig03(&quick_ctx());
    assert_eq!(rows.len(), 5);
    for r in &rows {
        assert!((3.0..7.0).contains(&r.total_watts), "{:?}", r.video);
        assert!((0.15..0.6).contains(&r.pt_share), "{:?}: {}", r.video, r.pt_share);
        // Compute is the dominant component (Fig. 3a's key point).
        let compute = r.component_watts[4];
        assert!(compute > r.component_watts[0], "compute > display");
        assert!(compute > r.component_watts[1], "compute > network");
    }
}

#[test]
fn fig05_and_fig12_shapes() {
    let ctx = quick_ctx();
    for c in fig05(&ctx) {
        // Monotone non-decreasing coverage.
        for w in c.coverage_pct.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        assert!(*c.coverage_pct.last().unwrap() <= 100.0 + 1e-9);
    }
    let rows = fig12(&ctx);
    assert_eq!(rows.len(), 5);
    for r in &rows {
        for i in 0..3 {
            assert!(r.compute_saving[i] > 0.0, "{:?}[{i}]", r.video);
            assert!(r.device_saving[i] > 0.0, "{:?}[{i}]", r.video);
            assert!(r.device_saving[i] < r.compute_saving[i], "device < compute share");
        }
    }
}

#[test]
fn fig13_and_fig14_shapes() {
    let ctx = quick_ctx();
    for r in fig13(&ctx) {
        // Tiny-config segments rebuffer ~4× as often as paper-scale ones;
        // the ~1% paper-scale figure is recorded in EXPERIMENTS.md.
        assert!(r.fps_drop_pct < 12.0, "{:?}: {}", r.video, r.fps_drop_pct);
        assert!((0.0..=100.0).contains(&r.miss_rate_pct));
    }
    let points = fig14(&ctx).expect("the default config ingests at 100% utilisation");
    assert_eq!(points.len(), 20);
    // Per video, storage overhead grows with utilisation.
    for chunk in points.chunks(4) {
        for w in chunk.windows(2) {
            assert!(w[0].storage_overhead <= w[1].storage_overhead + 1e-9, "{:?}", w[0].video);
        }
    }
}

#[test]
fn fig15_shape() {
    let rows = fig15(&quick_ctx());
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert!(r.compute_saving > 0.2, "{:?}/{:?}", r.use_case, r.video);
        assert!(r.device_saving > 0.1);
    }
    // Offline's device savings ≥ live's on average (no network energy to
    // dilute the compute win — §8.4).
    let mean = |uc: UseCase| {
        let v: Vec<_> = rows.iter().filter(|r| r.use_case == uc).collect();
        v.iter().map(|r| r.device_saving).sum::<f64>() / v.len() as f64
    };
    assert!(mean(UseCase::OfflinePlayback) >= mean(UseCase::LiveStreaming) - 0.02);
}

#[test]
fn tiled_variant_table_shape() {
    // The tiny 4×2 grid's 90°-wide tiles nearly all intersect the FOV;
    // bandwidth savings need the finer 8×4 raster (still CI-cheap).
    let mut scale = FigureScale::quick();
    scale.users = 2;
    scale.duration_s = 3.0;
    scale.sas = SasConfig::tiny_for_tests();
    scale.sas.analysis_src = (128, 64);
    scale.sas.tile_grid = evr_sas::TileGrid::default();
    let rows = tiled_variants_table(&FigureContext::new(scale));
    assert_eq!(rows.len(), 10); // 5 videos × {T, T+H}
    for r in &rows {
        assert!(r.bandwidth_saving > 0.0, "{:?}/{}: {}", r.video, r.variant, r.bandwidth_saving);
        assert!(
            r.faulted_bandwidth_saving > 0.0,
            "{:?}/{}: {}",
            r.video,
            r.variant,
            r.faulted_bandwidth_saving
        );
        assert!((0.0..1.0).contains(&r.faulted_degraded_fraction), "{:?}", r.video);
        if r.variant == Variant::TPlusH {
            // The accelerator swap, not the tiling, carries the energy win.
            assert!(r.device_saving > 0.1, "{:?}: {}", r.video, r.device_saving);
        }
    }
    // The paper's §2 point: T alone barely moves device energy.
    let t_mean =
        rows.iter().filter(|r| r.variant == Variant::T).map(|r| r.device_saving).sum::<f64>() / 5.0;
    let th_mean =
        rows.iter().filter(|r| r.variant == Variant::TPlusH).map(|r| r.device_saving).sum::<f64>()
            / 5.0;
    assert!(th_mean > t_mean + 0.05, "T+H {th_mean} vs T {t_mean}");
}
