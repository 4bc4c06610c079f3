//! Ablation: temporal segment length (§5.3 fixes it at 30 frames).
//!
//! Shorter segments re-stream less on a miss but pay more intra frames;
//! longer segments compress better but amplify each miss into a longer
//! fallback. This sweep shows why ~1 second (30 frames) is a sweet spot.

use evr_bench::{header, pct, scale_from_args};
use evr_core::{run_variant, EvrSystem, ExperimentConfig, UseCase, Variant};
use evr_video::codec::CodecConfig;
use evr_video::library::VideoId;

fn main() {
    let mut scale = scale_from_args(std::env::args().skip(1));
    if scale.users > 16 {
        scale.users = 16; // ablations don't need the full study
    }
    header("Ablation", "SAS segment length (video: Rhino, variant: S+H)");
    println!(
        "{:>8} {:>10} {:>11} {:>11} {:>10}",
        "frames", "miss rate", "bw saving", "storage", "saving"
    );
    for seg_frames in [15u32, 30, 60, 90] {
        let mut sas = scale.sas;
        sas.segment_frames = seg_frames;
        sas.codec = CodecConfig::new(seg_frames, sas.codec.quantizer);
        let system = EvrSystem::build(VideoId::Rhino, sas, scale.duration_s);
        let cfg = ExperimentConfig { users: scale.users, threads: 0 };
        let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
        let sh = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
        println!(
            "{:>8} {:>10} {:>11} {:>10.2}x {:>10}",
            seg_frames,
            pct(sh.fov_miss_fraction),
            pct(1.0 - sh.bytes_received / base.bytes_received),
            system.server().catalog().storage_overhead(),
            pct(sh.ledger.device_saving_vs(&base.ledger)),
        );
    }
}
