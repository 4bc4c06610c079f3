//! Fleet runner benchmark at production shape: thousands of synthetic
//! users (the paper's 59-head-trace dataset cycled across the fleet)
//! over every Fig. 12 variant of the online-streaming use-case, run
//! once as a plain serial loop and once through [`FleetRunner`], with a
//! run-time parity check that the fleet's reports — per-user and
//! merged — are identical to the serial ones. Emits `BENCH_fleet.json`
//! so the scaling trajectory has data points (ROADMAP: "serves heavy
//! traffic from millions of users").
//!
//! After the variant sweep it runs the scaling study on S+H:
//!
//! 1. a serial pass that times **every user individually**, giving both
//!    the measured 1-worker wall and the per-user cost vector;
//! 2. the chunked-schedule model
//!    ([`simulate_chunked_makespan`](evr_bench::scaling)) replayed over
//!    those costs at doubling worker counts — the **gated** speedup /
//!    efficiency numbers, reproducible on any host (a wall-clock sweep
//!    in a single-core CI container measures the OS timeslicer, not the
//!    scheduler);
//! 3. a real wall-clock sweep attached as `measured` points for
//!    reference, plus the old static interleave's modeled makespan so
//!    the report shows what chunked pulling buys;
//! 4. one timed serial and one timed widest run for per-stage Amdahl
//!    attribution from the worker timeline, written as a Chrome Trace
//!    Event file (`*.trace_events.json`, chrome://tracing / Perfetto).
//!
//! The `"scaling"` JSON section carries the fields `bench_gate`
//! compares against `benches/baselines/fleet.json`:
//! `scaling.fleet_users_per_s` (users / modeled widest makespan — moves
//! with both per-user cost and schedule balance) and
//! `scaling.efficiency`.
//!
//! Exits non-zero if any parity check fails, which is what the CI smoke
//! step relies on:
//!
//! ```text
//! cargo run --release -p evr-bench --bin fleet_bench -- --smoke json=BENCH_fleet.json
//! cargo run --release -p evr-bench --bin fleet_bench -- users=2000 workers=8 duration=2.0
//! ```
//!
//! Timings vary across machines, so the JSON is not golden-diffed —
//! only the `parity_ok` flags are load-bearing in CI.

use std::time::Instant;

use evr_bench::header;
use evr_bench::scaling::{
    simulate_chunked_makespan, simulate_interleave_makespan, stage_scaling, worker_counts,
    ScalingPoint, ScalingSummary,
};
use evr_client::session::PlaybackReport;
use evr_core::{EvrSystem, FleetRunner, UseCase, Variant};
use evr_obs::{Observer, Timeline, TimelineEvent, DEFAULT_TIMELINE_CAPACITY};
use evr_sas::SasConfig;
use evr_video::library::VideoId;

/// Production-shape default: the 59 head traces cycled over a few
/// thousand synthetic users, enough work per lane that scheduling —
/// not per-run constant overhead — dominates the makespan.
const PRODUCTION_USERS: u64 = 2000;

/// Smoke-mode fleet size: big enough that the schedule model still has
/// hundreds of chunks to balance, small enough for the CI bench step.
const SMOKE_USERS: u64 = 512;

struct FleetArgs {
    users: u64,
    workers: usize,
    duration_s: f64,
    json: Option<String>,
    trace: Option<String>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            users: PRODUCTION_USERS,
            workers: 8,
            duration_s: evr_video::library::SCENE_DURATION,
            json: None,
            trace: None,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> FleetArgs {
    let mut out = FleetArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            out.users = SMOKE_USERS;
        } else if let Some(v) = arg.strip_prefix("users=") {
            out.users = v.parse().expect("users=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("workers=") {
            out.workers = v.parse().expect("workers=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("duration=") {
            out.duration_s = v.parse().expect("duration=S takes seconds");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("trace=") {
            out.trace = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `--smoke`, `users=N`, `workers=N`, \
                 `duration=S`, `json=PATH` or `trace=PATH`"
            );
        }
    }
    out
}

struct VariantResult {
    variant: Variant,
    serial_s: f64,
    fleet_s: f64,
    parity_ok: bool,
}

fn merge_all(reports: &[PlaybackReport]) -> PlaybackReport {
    let mut merged = PlaybackReport::empty();
    for r in reports {
        merged.merge(r);
    }
    merged
}

/// One Fig. 12 variant: time the serial loop, time the fleet, check
/// both the per-user report vector and the merged fleet report match.
fn run_variant_case(sys: &EvrSystem, args: &FleetArgs, variant: Variant) -> VariantResult {
    let session = sys.session_for(UseCase::OnlineStreaming, variant);
    let start = Instant::now();
    let serial: Vec<PlaybackReport> = (0..args.users).map(|u| sys.run_with(&session, u)).collect();
    let serial_s = start.elapsed().as_secs_f64();

    let runner = FleetRunner::new(args.workers);
    let start = Instant::now();
    let fleet = runner.run(args.users, |u| sys.run_with(&session, u));
    let fleet_s = start.elapsed().as_secs_f64();

    let parity_ok = serial == fleet && merge_all(&serial) == merge_all(&fleet);
    VariantResult { variant, serial_s, fleet_s, parity_ok }
}

struct FleetScaling {
    summary: ScalingSummary,
    serial_users_per_s: f64,
    fleet_users_per_s: f64,
    modeled_chunked_wall_s: f64,
    modeled_interleave_wall_s: f64,
    timeline: Timeline,
}

/// One fleet run of the S+H variant with a timeline attached, returning
/// the captured worker intervals.
fn timed_run(
    sys: &mut EvrSystem,
    args: &FleetArgs,
    workers: usize,
) -> (Vec<TimelineEvent>, Timeline) {
    let timeline = Timeline::bounded(DEFAULT_TIMELINE_CAPACITY);
    let obs = Observer::enabled().with_timeline(timeline.clone());
    sys.instrument(&obs);
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
    let runner = FleetRunner::new(workers).with_observer(&obs);
    let _ = runner.run(args.users, |u| sys.run_with(&session, u));
    sys.instrument(&Observer::noop());
    (timeline.events(), timeline)
}

/// The scaling study on S+H: a per-user-timed serial pass feeds the
/// chunked-schedule model (the gated numbers), an untimed real sweep at
/// doubling worker counts becomes the `measured` reference points, and
/// one timed serial + one timed widest run give the per-stage Amdahl
/// attribution and the Chrome trace artifact.
fn run_scaling_sweep(sys: &mut EvrSystem, args: &FleetArgs) -> Option<FleetScaling> {
    let counts = worker_counts(args.workers);
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);

    // Serial pass timing every user individually: the measured
    // 1-worker wall point and the cost vector the model replays.
    let mut costs = Vec::with_capacity(args.users as usize);
    let start = Instant::now();
    for u in 0..args.users {
        let t = Instant::now();
        let _ = sys.run_with(&session, u);
        costs.push(t.elapsed().as_secs_f64());
    }
    let serial_wall = start.elapsed().as_secs_f64();

    let mut measured = vec![ScalingPoint { workers: 1, wall_s: serial_wall }];
    for &w in counts.iter().filter(|&&w| w > 1) {
        let runner = FleetRunner::new(w);
        let start = Instant::now();
        let _ = runner.run(args.users, |u| sys.run_with(&session, u));
        measured.push(ScalingPoint { workers: w, wall_s: start.elapsed().as_secs_f64() });
    }

    let summary = ScalingSummary::fit_modeled(&costs, &counts)?;
    let (serial_events, _) = timed_run(sys, args, 1);
    let (parallel_events, timeline) = timed_run(sys, args, summary.workers);
    let stages = stage_scaling(&serial_events, &parallel_events, summary.workers);
    let modeled_chunked_wall_s = simulate_chunked_makespan(&costs, summary.workers, 0);
    let modeled_interleave_wall_s = simulate_interleave_makespan(&costs, summary.workers);
    Some(FleetScaling {
        serial_users_per_s: args.users as f64 / serial_wall,
        fleet_users_per_s: args.users as f64 / modeled_chunked_wall_s,
        modeled_chunked_wall_s,
        modeled_interleave_wall_s,
        summary: summary.with_stages(stages).with_measured(measured),
        timeline,
    })
}

/// Splices the throughput fields into the summary's JSON object so the
/// gate can address them as `scaling.fleet_users_per_s`.
fn scaling_json(s: &FleetScaling) -> String {
    let summary = s.summary.to_json();
    let inner = summary.strip_prefix('{').and_then(|t| t.strip_suffix('}')).unwrap_or(&summary);
    format!(
        "{{\"variant\": \"S+H\", \"serial_users_per_s\": {:.6}, \"fleet_users_per_s\": {:.6}, \
         \"modeled_chunked_wall_s\": {:.6}, \"modeled_interleave_wall_s\": {:.6}, {}}}",
        s.serial_users_per_s,
        s.fleet_users_per_s,
        s.modeled_chunked_wall_s,
        s.modeled_interleave_wall_s,
        inner
    )
}

/// Stable JSON: fixed key order, floats `{:.6}`, one variant per line.
fn bench_json(
    args: &FleetArgs,
    results: &[VariantResult],
    scaling: Option<&FleetScaling>,
) -> String {
    let serial_total: f64 = results.iter().map(|r| r.serial_s).sum();
    let fleet_total: f64 = results.iter().map(|r| r.fleet_s).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"users\": {}, \"workers\": {}, \"duration_s\": {:.6},\n",
        args.users, args.workers, args.duration_s
    ));
    out.push_str(&format!(
        "  \"parity_ok\": {},\n  \"variants\": [\n",
        results.iter().all(|r| r.parity_ok)
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"parity_ok\": {}, \"serial_s\": {:.6}, \
             \"fleet_s\": {:.6}, \"speedup\": {:.6}, \"serial_users_per_s\": {:.6}, \
             \"fleet_users_per_s\": {:.6}}}{}\n",
            r.variant,
            r.parity_ok,
            r.serial_s,
            r.fleet_s,
            r.serial_s / r.fleet_s,
            args.users as f64 / r.serial_s,
            args.users as f64 / r.fleet_s,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"total\": {{\"serial_s\": {:.6}, \"fleet_s\": {:.6}, \"speedup\": {:.6}}}",
        serial_total,
        fleet_total,
        serial_total / fleet_total
    ));
    if let Some(s) = scaling {
        out.push_str(&format!(",\n  \"scaling\": {}\n", scaling_json(s)));
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("fleet_bench", "production-shape Fig. 12 sweep: serial loop vs chunked fleet runner");
    println!(
        "{} users, {} workers, {:.1}s of content per user",
        args.users, args.workers, args.duration_s
    );

    let mut sys = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), args.duration_s);
    let mut results = Vec::new();
    for variant in [Variant::Baseline, Variant::S, Variant::H, Variant::SPlusH] {
        let r = run_variant_case(&sys, &args, variant);
        println!(
            "  {:<8} parity {}  serial {:.2}s ({:.1} users/s), fleet {:.2}s ({:.1} users/s), {:.2}x",
            r.variant.to_string(),
            if r.parity_ok { "ok" } else { "FAIL" },
            r.serial_s,
            args.users as f64 / r.serial_s,
            r.fleet_s,
            args.users as f64 / r.fleet_s,
            r.serial_s / r.fleet_s,
        );
        results.push(r);
    }
    let serial_total: f64 = results.iter().map(|r| r.serial_s).sum();
    let fleet_total: f64 = results.iter().map(|r| r.fleet_s).sum();
    println!(
        "  total: serial {:.2}s, fleet {:.2}s, {:.2}x with {} workers",
        serial_total,
        fleet_total,
        serial_total / fleet_total,
        args.workers
    );

    let scaling = run_scaling_sweep(&mut sys, &args);
    match &scaling {
        Some(s) => {
            println!("  modeled {}", s.summary.render_line());
            println!(
                "  modeled makespan at {} workers: chunked {:.2}s vs static interleave {:.2}s",
                s.summary.workers, s.modeled_chunked_wall_s, s.modeled_interleave_wall_s
            );
            println!(
                "  throughput (S+H): serial {:.1} users/s measured, fleet {:.1} users/s modeled",
                s.serial_users_per_s, s.fleet_users_per_s
            );
            for p in &s.summary.measured {
                println!("    measured wall at {} workers: {:.2}s", p.workers, p.wall_s);
            }
            for st in &s.summary.stages {
                println!(
                    "    stage {:<16} serial busy {:.3}s, widest lane {:.3}s, serial fraction {:.3}",
                    st.stage, st.serial_busy_s, st.parallel_busy_s, st.serial_fraction
                );
            }
        }
        None => println!("  scaling: skipped (needs workers >= 2)"),
    }

    if let Some(path) = &args.json {
        let json = bench_json(&args, &results, scaling.as_ref());
        std::fs::write(path, &json).expect("write fleet bench JSON");
        println!("json: {path}");
    }

    // The timeline of the widest timed run becomes the Chrome trace
    // artifact (chrome://tracing / Perfetto).
    let trace_path = args.trace.clone().or_else(|| {
        args.json.as_ref().map(|p| {
            p.strip_suffix(".json").map_or_else(
                || format!("{p}.trace_events.json"),
                |stem| format!("{stem}.trace_events.json"),
            )
        })
    });
    if let (Some(path), Some(s)) = (&trace_path, &scaling) {
        s.timeline.write_chrome_trace(path).expect("write fleet trace");
        println!("trace: {path}");
    }

    if !results.iter().all(|r| r.parity_ok) {
        eprintln!("parity FAILED: fleet reports diverged from the serial sweep");
        std::process::exit(1);
    }
}
