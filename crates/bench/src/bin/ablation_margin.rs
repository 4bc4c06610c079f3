//! Ablation: the FOV streaming margin (how much wider than the device
//! FOV each pre-rendered stream is).
//!
//! A wider margin absorbs more head motion (fewer misses) but the FOV
//! frames cover — and therefore carry — more content.

use evr_bench::{header, pct, scale_from_args};
use evr_core::{run_variant, EvrSystem, ExperimentConfig, UseCase, Variant};
use evr_math::Degrees;
use evr_video::library::VideoId;

fn main() {
    let mut scale = scale_from_args(std::env::args().skip(1));
    if scale.users > 16 {
        scale.users = 16;
    }
    header("Ablation", "FOV streaming margin (video: RS, variant: S+H)");
    println!("{:>8} {:>10} {:>11} {:>10}", "margin", "miss rate", "bw saving", "saving");
    for margin in [0.0f64, 5.0, 10.0, 15.0, 20.0] {
        let mut sas = scale.sas;
        sas.fov_margin = Degrees(margin);
        let system = EvrSystem::build(VideoId::Rs, sas, scale.duration_s);
        let cfg = ExperimentConfig { users: scale.users, threads: 0 };
        let base = run_variant(&system, UseCase::OnlineStreaming, Variant::Baseline, &cfg);
        let sh = run_variant(&system, UseCase::OnlineStreaming, Variant::SPlusH, &cfg);
        println!(
            "{:>7}° {:>10} {:>11} {:>10}",
            margin,
            pct(sh.fov_miss_fraction),
            pct(1.0 - sh.bytes_received / base.bytes_received),
            pct(sh.ledger.device_saving_vs(&base.ledger)),
        );
    }
}
