//! Integration coverage for the beyond-the-paper extensions: tiled
//! streaming, the bitrate ladder + ABR, the PTE driver interface, trace
//! I/O, and battery projection — all exercised together.

use evr_client::abr::{simulate_abr, AbrPolicy, BandwidthTrace};
use evr_core::{EvrSystem, Variant};
use evr_energy::Battery;
use evr_pte::regs::{PteDevice, Reg, CTRL_START, STATUS_FRAME_DONE};
use evr_sas::{ingest_ladder_with, SasConfig};
use evr_trace::io::{read_csv, write_csv, TraceFormat};
use evr_video::library::{scene_for, VideoId};

#[test]
fn csv_traces_drive_real_playback() {
    // Export a synthetic user, re-import it, and replay it end to end —
    // the drop-in path for the real head-movement dataset.
    let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
    let trace = system.user_trace(5);
    let mut buf = Vec::new();
    write_csv(&trace, &mut buf, TraceFormat::Quaternion).unwrap();
    let imported = read_csv(&buf[..]).unwrap();

    let session = system.session_for(evr_core::UseCase::OnlineStreaming, Variant::SPlusH);
    let native = session.run(system.server(), &trace);
    let replayed = session.run(system.server(), &imported);
    assert_eq!(native.frames_total, replayed.frames_total);
    // Quaternion round-tripping is lossy only at the 1e-6 level: the
    // FOV checker must reach identical decisions.
    assert_eq!(native.fov_hits, replayed.fov_hits);
    assert_eq!(native.bytes_received, replayed.bytes_received);
}

#[test]
fn ladder_and_abr_agree_with_the_catalog_scale() {
    let scene = scene_for(VideoId::Timelapse);
    let cfg = SasConfig::tiny_for_tests();
    let ladder = ingest_ladder_with(&scene, &cfg, &[24, 12], 1.0, 0).expect("valid ladder");
    assert_eq!(ladder.segment_count(), 4);
    // The finest rung's bitrate bounds the coarsest's from above.
    let rate = |rung| ladder.rung_bitrate_bps(rung).expect("two rungs");
    assert!(rate(1) > rate(0));

    // A link sized between the rungs forces the coarse rung without stalls.
    let mid = (rate(0) * 1.3).min(rate(1) * 0.9);
    let out = simulate_abr(
        ladder.matrix(),
        ladder.segment_duration(),
        &BandwidthTrace::constant(mid),
        AbrPolicy::default(),
    );
    assert_eq!(out.stalls, 0, "{out:?}");
    assert!(out.mean_rung < 0.5, "{out:?}");
}

#[test]
fn driver_programmed_pte_matches_library_configuration() {
    // Program the accelerator through its register file and compare
    // against configuring the engine directly.
    let mut dev = PteDevice::new();
    dev.write(Reg::SrcWidth as u32, 1920);
    dev.write(Reg::SrcHeight as u32, 1080);
    dev.write(Reg::OutWidth as u32, 960);
    dev.write(Reg::OutHeight as u32, 960);
    dev.write(Reg::Projection as u32, 2); // EAC
    dev.write(Reg::Ctrl as u32, CTRL_START);
    assert_ne!(dev.read(Reg::Status as u32) & STATUS_FRAME_DONE, 0);
    let via_regs = dev.last_frame_stats().unwrap();

    let direct = evr_pte::Pte::new(
        evr_pte::PteConfig::prototype()
            .with_projection(evr_projection::Projection::Eac)
            .with_viewport(evr_projection::Viewport::new(960, 960)),
    )
    .analyze_frame_strided(1920, 1080, evr_math::EulerAngles::default(), 4);
    assert_eq!(via_regs.out_pixels, direct.out_pixels);
    assert_eq!(via_regs.dram_read_bytes, direct.dram_read_bytes);
    assert!((via_regs.energy_j() - direct.energy_j()).abs() < 1e-12);
}

#[test]
fn savings_translate_into_viewing_time() {
    let system = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
    let base = system.run_user(Variant::Baseline, 0);
    let evr = system.run_user(Variant::SPlusH, 0);
    let saving = evr.ledger.device_saving_vs(&base.ledger);
    let battery = Battery::default();
    let hours_base = battery.playback_hours(base.ledger.total_power());
    let hours_evr = battery.playback_hours(evr.ledger.total_power());
    let extension = hours_evr / hours_base - 1.0;
    // The ledger-level saving and the battery-level extension must agree.
    assert!((extension - Battery::viewing_time_extension(saving)).abs() < 1e-9);
    assert!(extension > 0.1, "extension {extension}");
}
