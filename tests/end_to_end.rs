//! End-to-end integration: ingest → serve → replay → account, across
//! variants and use-cases, checking the system-level invariants the
//! paper's conclusions rest on.

use evr_core::{EvrSystem, UseCase, Variant};
use evr_energy::{Activity, Component};
use evr_sas::SasConfig;
use evr_video::library::VideoId;

fn system() -> EvrSystem {
    EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 2.0)
}

#[test]
fn every_variant_plays_every_frame() {
    let sys = system();
    for variant in [Variant::Baseline, Variant::S, Variant::H, Variant::SPlusH] {
        let r = sys.run_user(variant, 0);
        assert_eq!(r.frames_total, 60, "{variant}");
        assert!(r.duration_s > 1.9, "{variant}");
    }
}

#[test]
fn energy_orderings_hold_per_user() {
    let sys = system();
    for user in 0..4 {
        let base = sys.run_user(Variant::Baseline, user);
        let h = sys.run_user(Variant::H, user);
        let sh = sys.run_user(Variant::SPlusH, user);
        // H strictly beats baseline: same flow, cheaper PT hardware.
        assert!(h.ledger.total() < base.ledger.total(), "user {user}");
        // S+H never does more PT work than H.
        assert!(
            sh.ledger.activity_total(Activity::ProjectiveTransform)
                <= h.ledger.activity_total(Activity::ProjectiveTransform) + 1e-9,
            "user {user}"
        );
        // Baseline device power lands in the paper's ~5 W regime.
        let w = base.ledger.total_power();
        assert!((3.5..6.5).contains(&w), "user {user}: {w} W");
    }
}

#[test]
fn sas_hit_frames_do_no_pt_at_all() {
    let sys = system();
    let r = sys.run_user(Variant::SPlusH, 1);
    if r.fallback_frames == 0 {
        assert_eq!(r.ledger.activity_total(Activity::ProjectiveTransform), 0.0);
    } else {
        // PT energy must scale with fallback frames only.
        let per_frame =
            r.ledger.activity_total(Activity::ProjectiveTransform) / r.fallback_frames as f64;
        let gpu_per_frame = 0.03; // J; PTE is far below the GPU's ~30 mJ
        assert!(per_frame < gpu_per_frame, "PT J/frame = {per_frame}");
    }
}

#[test]
fn bytes_flow_matches_path() {
    let sys = system();
    // Offline playback never touches the network.
    let offline = sys.run_user_in(UseCase::OfflinePlayback, Variant::H, 2);
    assert_eq!(offline.bytes_received, 0);
    assert_eq!(offline.ledger.component_total(Component::Network), 0.0);
    // Live streams every original byte.
    let live = sys.run_user_in(UseCase::LiveStreaming, Variant::H, 2);
    let catalog_bytes: Option<u64> = (0..sys.server().catalog().segment_count())
        .map(|s| sys.server().catalog().original_target_bytes(s))
        .sum();
    assert_eq!(Some(live.bytes_received), catalog_bytes);
}

#[test]
fn oracle_prediction_upper_bounds_sas() {
    let sys = system();
    for user in 0..3 {
        let sh = sys.run_user(Variant::SPlusH, user);
        let ideal = sys.run_user(Variant::IdealHmp, user);
        assert!(
            ideal.ledger.total() <= sh.ledger.total() + 1e-9,
            "user {user}: ideal {} > S+H {}",
            ideal.ledger.total(),
            sh.ledger.total()
        );
        assert_eq!(ideal.fov_misses, 0);
    }
}

#[test]
fn fps_drop_stays_bounded() {
    // Lee et al. (paper §8.2): a 5% FPS drop is unlikely to affect
    // perception; at paper-scale segments EVR stays around 1% (see
    // EXPERIMENTS.md / fig13). The tiny test config uses 8-frame
    // segments — ~4× the rebuffer opportunities per second — so this
    // only bounds the worst case.
    let sys = system();
    for user in 0..4 {
        let r = sys.run_user(Variant::SPlusH, user);
        assert!(r.fps_drop_fraction() < 0.12, "user {user}: {}", r.fps_drop_fraction());
    }
}

#[test]
fn storage_utilization_monotonicity() {
    let sys = system();
    let mut prev_bytes = 0u64;
    for util in [0.25, 0.5, 0.75, 1.0] {
        let derived = sys.with_utilization(util);
        let bytes = derived.server().catalog().total_fov_target_bytes();
        assert!(bytes >= prev_bytes, "utilization {util}");
        prev_bytes = bytes;
    }
}
