//! Observability — tracing and metrics threaded through the pipeline.
//!
//! Runs one online-streaming session per variant with a live
//! [`evr_obs::Observer`] and worker timeline attached, prints the
//! per-variant metric summary (FOV outcomes, PTE cycle stats,
//! per-component energy gauges) and writes each variant's run report,
//! including its stage intervals as a Chrome trace.
//!
//! ```sh
//! cargo run --release -p evr-core --example observability
//! ```

use evr_core::{write_run_report, EvrSystem, UseCase, Variant};
use evr_obs::names;
use evr_sas::SasConfig;
use evr_video::library::VideoId;

fn main() {
    let video = VideoId::Rhino;
    let duration = 6.0;
    let user = 3;
    let out_dir = std::env::temp_dir().join("evr-observability");

    println!("== ingesting {video} ({duration} s) ==");
    let mut system = EvrSystem::build(video, SasConfig::default(), duration);

    for variant in [Variant::Baseline, Variant::S, Variant::H, Variant::SPlusH] {
        // One fresh observer per variant: each summary and trace covers
        // exactly one session.
        let timeline = evr_obs::Timeline::bounded(evr_obs::DEFAULT_TIMELINE_CAPACITY);
        let obs = evr_obs::Observer::enabled().with_timeline(timeline.clone());
        system.instrument(&obs);
        let report = system.run_user_in(UseCase::OnlineStreaming, variant, user);

        println!();
        println!(
            "== {variant}: user {user}, {} frames, {:.2} J device energy ==",
            report.frames_total,
            report.ledger.total()
        );
        print!("{}", obs.summary());

        // The FOV counters tell the variant's story at a glance: SAS
        // paths (S, S+H) rack up hits, original-stream paths never
        // consult the checker.
        let hits = obs.counter(names::FOV_HITS).get();
        let fallback = obs.counter(names::FALLBACK_FRAMES).get();
        println!("fov hits {hits}, fallback frames {fallback}");

        let (report, _) = write_run_report(&obs, &format!("{video:?}-{variant}"), &out_dir)
            .expect("write run report");
        let trace = report.with_extension("").with_extension("trace_events.json");
        println!("trace: {} ({} intervals)", trace.display(), timeline.events().len());
    }
}
