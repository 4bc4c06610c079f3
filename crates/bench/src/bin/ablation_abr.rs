//! Ablation: adaptive-bitrate streaming on a constrained cellular-class
//! link — original ladder vs EVR's FOV streams.
//!
//! The paper evaluates on uncongested WiFi; this asks what its bandwidth
//! savings buy when the link is the bottleneck: the DASH client must
//! downshift quality or stall, while EVR's FOV streams fit comfortably.

use evr_bench::{header, scale_from_args};
use evr_client::abr::{simulate_abr, AbrPolicy, BandwidthTrace};
use evr_core::EvrSystem;
use evr_math::EulerAngles;
use evr_sas::ingest_ladder_with;
use evr_video::library::{scene_for, VideoId};

fn main() {
    let scale = scale_from_args(std::env::args().skip(1));
    let video = VideoId::Rhino;
    header("Ablation", "ABR on a fluctuating 4G-class link (video: Rhino)");

    // Real rung sizes for the original stream (coarsest first).
    let ladder =
        ingest_ladder_with(&scene_for(video), &scale.sas, &[24, 16, 10], scale.duration_s, 0)
            .unwrap_or_else(|e| panic!("ladder ingest failed: {e}"));
    eprintln!(
        "rung bitrates: {:.1} / {:.1} / {:.1} Mbps",
        ladder.rung_bitrate_bps(0) / 1e6,
        ladder.rung_bitrate_bps(1) / 1e6,
        ladder.rung_bitrate_bps(2) / 1e6
    );

    // EVR's per-segment FOV traffic (one quality, cluster chosen by a
    // centre-looking viewer).
    let system = EvrSystem::build(video, scale.sas, scale.duration_s);
    let catalog = system.server().catalog();
    let fov_ladder: Vec<Vec<u64>> = (0..catalog.segment_count())
        .map(|seg| {
            let cluster = system
                .server()
                .best_cluster(seg, EulerAngles::default())
                .or_else(|| catalog.clusters_in_segment(seg).first().copied());
            match cluster {
                Some(c) => vec![catalog.fov_target_bytes(catalog.fov_stream(seg, c).unwrap())],
                None => vec![catalog.original_target_bytes(seg).expect("segment in range")],
            }
        })
        .collect();

    println!(
        "{:>12} | {:>9} {:>7} {:>10} {:>9} | {:>9} {:>7}",
        "link", "stalls", "stall s", "mean rung", "MB", "EVR stall", "EVR MB"
    );
    for (name, link) in [
        ("40 Mbps", BandwidthTrace::constant(40e6)),
        ("25 Mbps", BandwidthTrace::constant(25e6)),
        ("25<->8 Mbps", BandwidthTrace::square_wave(25e6, 8e6, 20.0, scale.duration_s)),
        ("12 Mbps", BandwidthTrace::constant(12e6)),
    ] {
        let seg_s = ladder.segment_duration();
        let dash = simulate_abr(ladder.matrix(), seg_s, &link, AbrPolicy::default());
        let evr = simulate_abr(&fov_ladder, seg_s, &link, AbrPolicy::default());
        println!(
            "{:>12} | {:>9} {:>7.2} {:>10.2} {:>8.1} | {:>8.2}s {:>6.1}",
            name,
            dash.stalls,
            dash.stall_time_s,
            dash.mean_rung,
            dash.bytes as f64 / 1e6,
            evr.stall_time_s,
            evr.bytes as f64 / 1e6,
        );
    }
    println!("(EVR's single FOV quality costs less than the ladder's *lowest* rung, so");
    println!(" on constrained links it stalls less while never sacrificing source");
    println!(" quality; only deep dips below the FOV bitrate still bite)");
}
