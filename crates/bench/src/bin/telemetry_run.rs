//! Instrumented experiment run: replays Baseline and S+H online
//! streaming with a live [`evr_obs::Observer`] (timeline attached)
//! threaded through the whole pipeline, prints the metric summary for
//! each variant and writes the per-run report artifacts
//! (`*.report.json`, `*.summary.txt` with the slowest-intervals
//! exemplar table, and the Chrome-loadable `*.trace_events.json`
//! worker timeline).
//!
//! ```text
//! cargo run --release -p evr-bench --bin telemetry_run -- quick
//! EVR_TELEMETRY_OUT=/tmp/telemetry cargo run -p evr-bench --bin telemetry_run -- users=4
//! ```

use evr_bench::{header, scale_from_args};
use evr_core::experiment::{run_variant, write_run_report, ExperimentConfig};
use evr_core::{EvrSystem, UseCase, Variant};
use evr_video::library::VideoId;

fn main() {
    let scale = scale_from_args(std::env::args().skip(1));
    let out_dir =
        std::env::var("EVR_TELEMETRY_OUT").unwrap_or_else(|_| "target/telemetry".to_string());
    header("telemetry", "instrumented Baseline vs S+H online-streaming run");

    let video = VideoId::Rhino;
    let cfg = ExperimentConfig { users: scale.users, threads: scale.threads };
    for variant in [Variant::Baseline, Variant::SPlusH] {
        // A fresh observer per variant keeps each artifact self-contained.
        let timeline = evr_obs::Timeline::bounded(evr_obs::DEFAULT_TIMELINE_CAPACITY);
        let obs = evr_obs::Observer::enabled().with_timeline(timeline);
        let mut system = EvrSystem::build(video, scale.sas, scale.duration_s);
        system.instrument(&obs);
        let agg = run_variant(&system, UseCase::OnlineStreaming, variant, &cfg);

        println!();
        println!(
            "--- {variant} | {video:?}, {} users x {:.0} s | mean device energy {:.2} J ---",
            agg.users,
            scale.duration_s,
            agg.ledger.total()
        );
        print!("{}", obs.summary());

        let label = format!("{video:?}-{variant}");
        let (report, summary) =
            write_run_report(&obs, &label, &out_dir).expect("write report artifacts");
        let trace = report.with_extension("").with_extension("trace_events.json");
        println!("artifacts: {}", report.display());
        println!("           {}", summary.display());
        println!("           {}", trace.display());
    }
}
