//! The first-class tiled multi-rate variants (`T`, `T+H`): the paper's
//! §2 claim (tiling saves bandwidth, not energy), baseline parity on a
//! degenerate 1×1 grid, fleet determinism across worker counts (clean
//! and faulted), link-budget discipline of the spherical rate
//! allocator, FOV-monotone tile visibility, and per-tile fault
//! isolation (a lost tile degrades that tile, never the whole frame).

use std::sync::Arc;

use evr_client::session::{ContentPath, PlaybackSession, Renderer, SessionConfig};
use evr_core::{
    run_variant, run_variant_resilient, AggregateReport, EvrSystem, ExperimentConfig, UseCase,
    Variant,
};
use evr_faults::{FaultEvent, FaultPlan, FaultSetup};
use evr_sas::{
    ingest_tiled_rates_with, ingest_video_with, IngestOptions, SasConfig, SasServer, TileGrid,
    PERIPHERY_MARGIN,
};
use evr_trace::behavior::{generate_user_trace, params_for};
use evr_video::library::{scene_for, VideoId};

fn single_tile_config() -> SasConfig {
    let mut sas = SasConfig::tiny_for_tests();
    sas.tile_grid = TileGrid { cols: 1, rows: 1 };
    sas
}

fn tiny_system() -> EvrSystem {
    EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0)
}

/// A 1×1 grid has exactly one always-visible tile whose top rung is the
/// same encode as the original segment, so — given a link fat enough
/// that the allocator always affords the top rung — tiled playback must
/// be byte-identical to the plain baseline, ledger and all.
#[test]
fn single_tile_grid_matches_the_plain_baseline() {
    let scene = scene_for(VideoId::Rhino);
    let sas = single_tile_config();
    let catalog = ingest_video_with(&scene, &sas, 1.0, &IngestOptions::default());
    let server = SasServer::new(catalog.expect("single-tile config ingests"));
    let tiles = Arc::new(ingest_tiled_rates_with(&scene, &sas, 1.0, 0));
    let trace = generate_user_trace(&scene, &params_for(VideoId::Rhino), 3, 1.0, 30.0);
    for renderer in [Renderer::Gpu, Renderer::Pte] {
        let mut cfg = SessionConfig::new(ContentPath::OnlineBaseline, renderer, sas);
        cfg.network.bandwidth_bps = 10e9; // ample: the top rung always fits
        let base = PlaybackSession::new(cfg).run(&server, &trace);
        let tiled = PlaybackSession::new(cfg).with_tiles(tiles.clone()).run(&server, &trace);
        assert_eq!(base, tiled, "{renderer:?}");
    }
}

#[test]
fn tiled_variants_produce_figure_rows_and_save_bandwidth() {
    // Bandwidth savings need a grid fine enough that the out-of-view
    // rear tiles carry real weight; the tiny 4×2 grid's 90°-wide tiles
    // nearly all intersect a 110° FOV plus periphery.
    let mut sas = SasConfig::tiny_for_tests();
    sas.analysis_src = (128, 64); // 8×4 grid of 16×16 tiles
    sas.tile_grid = TileGrid::default();
    let sys = EvrSystem::build(VideoId::Rhino, sas, 1.0);
    let cfg = ExperimentConfig::quick(3);
    let base = run_variant(&sys, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
    let t = run_variant(&sys, UseCase::OnlineStreaming, Variant::T, &cfg);
    let th = run_variant(&sys, UseCase::OnlineStreaming, Variant::TPlusH, &cfg);
    let sh = run_variant(&sys, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
    for (name, agg) in [("T", &t), ("T+H", &th)] {
        assert!(agg.ledger.total() > 0.0, "{name}");
        assert!(agg.bytes_received > 0.0, "{name}");
        assert_eq!(agg.frozen_fraction, 0.0, "{name}: clean runs never freeze");
    }
    // The paper's §2 argument, reproduced: out-of-view tiles ride the
    // coarse rung, so tiling cuts bandwidth against the all-top-rung
    // baseline...
    let t_bandwidth_saving = 1.0 - t.bytes_received / base.bytes_received;
    assert!(t_bandwidth_saving > 0.05, "T saves {t_bandwidth_saving:.3} of the bytes");
    // ...but barely moves device energy, because PT still runs on the
    // GPU for every frame...
    let device_saving = |agg: &AggregateReport| 1.0 - agg.ledger.total() / base.ledger.total();
    let t_device_saving = device_saving(&t);
    assert!(t_device_saving < 0.10, "T saves {t_device_saving:.3} of the energy");
    // ...while EVR actually cuts device energy...
    let sh_device_saving = device_saving(&sh);
    assert!(
        sh_device_saving > 2.0 * t_device_saving.max(0.01),
        "S+H saves {sh_device_saving:.3}, T {t_device_saving:.3}"
    );
    // ...and T+H swaps the GPU for the PTE, cutting device energy below T.
    assert!(
        th.ledger.total() < t.ledger.total(),
        "T+H {} T {}",
        th.ledger.total(),
        t.ledger.total()
    );
}

#[test]
fn fleet_results_are_worker_count_independent() {
    let sys = tiny_system();
    let mild = FaultSetup::seeded(7).with_plan(
        FaultPlan::none()
            .with(FaultEvent::RequestDrop { segment: 1 })
            .with(FaultEvent::SegmentCorruption { segment: 2 }),
    );
    for variant in Variant::TILED {
        let clean: Vec<_> = [1, 2, 8]
            .iter()
            .map(|&threads| {
                let mut cfg = ExperimentConfig::quick(4);
                cfg.threads = threads;
                run_variant(&sys, UseCase::OnlineStreaming, variant, &cfg)
            })
            .collect();
        assert_eq!(clean[0], clean[1], "{variant} clean 1 vs 2 workers");
        assert_eq!(clean[0], clean[2], "{variant} clean 1 vs 8 workers");
        let faulted: Vec<_> = [1, 2, 8]
            .iter()
            .map(|&threads| {
                let mut cfg = ExperimentConfig::quick(4);
                cfg.threads = threads;
                run_variant_resilient(&sys, UseCase::OnlineStreaming, variant, &cfg, &mild)
            })
            .collect();
        assert_eq!(faulted[0], faulted[1], "{variant} faulted 1 vs 2 workers");
        assert_eq!(faulted[0], faulted[2], "{variant} faulted 1 vs 8 workers");
    }
}

/// The allocator never spends past the link budget as long as the base
/// layer itself fits — checked against real per-tile rung sizes from an
/// ingested catalog, across poses and budget levels.
#[test]
fn allocation_respects_the_link_budget_end_to_end() {
    let scene = scene_for(VideoId::Rs);
    let sas = SasConfig::tiny_for_tests();
    let tiles = ingest_tiled_rates_with(&scene, &sas, 1.0, 0);
    let grid = tiles.grid();
    let weights = grid.tile_weights();
    let poses = [
        evr_math::EulerAngles::from_degrees(0.0, 0.0, 0.0),
        evr_math::EulerAngles::from_degrees(120.0, -30.0, 0.0),
        evr_math::EulerAngles::from_degrees(-90.0, 85.0, 0.0),
    ];
    for seg in 0..tiles.segment_count() {
        let rung_bytes = tiles.tile_rung_bytes(seg);
        let base: u64 = rung_bytes.iter().map(|t| t[0]).sum();
        let top: u64 = rung_bytes.iter().map(|t| *t.last().unwrap()).sum();
        assert!(top > base, "seg {seg}: aggregate rungs must be ordered");
        for pose in poses {
            let classes = grid.classify_tiles(pose, sas.device_fov, PERIPHERY_MARGIN);
            for budget in [base, base + (top - base) / 4, base + (top - base) / 2, top] {
                let alloc =
                    evr_client::allocate_tile_rungs(&rung_bytes, &weights, &classes, budget);
                assert!(
                    alloc.total_bytes <= budget,
                    "seg {seg}: spent {} of {budget}",
                    alloc.total_bytes
                );
            }
        }
    }
}

/// Growing the FOV can only grow the visible tile set.
#[test]
fn tile_visibility_is_monotone_in_fov_size() {
    let sas = SasConfig::tiny_for_tests();
    let grid = TileGrid::default();
    let poses = [
        evr_math::EulerAngles::from_degrees(0.0, 0.0, 0.0),
        evr_math::EulerAngles::from_degrees(45.0, 20.0, 0.0),
        evr_math::EulerAngles::from_degrees(-170.0, -60.0, 0.0),
        evr_math::EulerAngles::from_degrees(90.0, 88.0, 0.0),
    ];
    for pose in poses {
        let mut prev = grid.visible_tiles(pose, sas.device_fov);
        for grow in [10.0, 25.0, 45.0, 80.0] {
            let cur = grid.visible_tiles(pose, sas.device_fov.expanded(evr_math::Degrees(grow)));
            for (i, (&small, &big)) in prev.iter().zip(&cur).enumerate() {
                assert!(!small || big, "tile {i} vanished when the FOV grew by {grow}°");
            }
            prev = cur;
        }
    }
}

/// A corrupt segment under the tiled pipeline degrades the affected
/// tile to the coarse rung — the transfer is paid twice for that tile —
/// while every frame keeps playing; nothing freezes.
#[test]
fn corruption_degrades_one_tile_without_freezing_the_frame() {
    let sys = tiny_system();
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::T);
    let clean = sys.run_with(&sys.session_for(UseCase::OnlineStreaming, Variant::T), 3);
    let setup = FaultSetup::none()
        .with_plan(FaultPlan::none().with(FaultEvent::SegmentCorruption { segment: 0 }));
    let r = sys.run_with_resilient(&session, 3, &setup);
    assert_eq!(r.faults.corrupt_segments, 1);
    assert_eq!(r.faults.frozen_frames, 0, "partial tile loss must not freeze the frame");
    assert!(r.faults.degraded_frames > 0, "the corrupt tile replays at the coarse rung");
    assert_eq!(r.frames_total, clean.frames_total);
    assert!(r.bytes_received > clean.bytes_received, "the corrupt transfer is paid for");
}

#[test]
fn a_dropped_request_is_recovered_by_the_per_tile_retry() {
    let sys = tiny_system();
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::T);
    let setup = FaultSetup::none()
        .with_plan(FaultPlan::none().with(FaultEvent::RequestDrop { segment: 1 }));
    let r = sys.run_with_resilient(&session, 4, &setup);
    assert!(r.faults.retries >= 1);
    assert_eq!(r.faults.frozen_frames, 0);
    assert_eq!(r.faults.degraded_frames, 0, "the retried rung still delivers full quality");
}

#[test]
fn a_permanent_outage_freezes_tiled_playback_entirely() {
    let sys = tiny_system();
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::TPlusH);
    let setup = FaultSetup::none().with_plan(
        FaultPlan::none().with(FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1e6 }),
    );
    let r = sys.run_with_resilient(&session, 5, &setup);
    assert_eq!(r.faults.frozen_frames, r.frames_total);
    assert_eq!(r.bytes_received, 0);
    assert!(r.faults.timeouts > 0);
}

#[test]
fn clean_fault_setup_matches_the_plain_tiled_run() {
    let sys = tiny_system();
    for variant in Variant::TILED {
        let session = sys.session_for(UseCase::OnlineStreaming, variant);
        let clean = sys.run_with(&session, 6);
        let resilient = sys.run_with_resilient(&session, 6, &FaultSetup::none());
        assert_eq!(clean, resilient, "{variant}");
    }
}

#[test]
fn rung_ladder_config_is_derived_from_the_codec_quantizer() {
    let sas = SasConfig::default();
    let top = sas.codec.quantizer;
    assert_eq!(sas.resolved_tiled_low_quantizer(), (top * 2).min(50));
    let ladder = sas.tiled_rung_quantizers();
    assert_eq!(ladder.first().copied(), Some(sas.resolved_tiled_low_quantizer()));
    assert_eq!(ladder.last().copied(), Some(top));

    let pinned = SasConfig { tiled_low_quantizer: 50, ..SasConfig::default() };
    assert_eq!(pinned.resolved_tiled_low_quantizer(), 50);
    assert_eq!(pinned.tiled_rung_quantizers(), vec![50, top + (50 - top) / 2, top]);
}
