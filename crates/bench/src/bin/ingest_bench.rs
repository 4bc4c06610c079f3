//! Cloud-side ingest benchmark at production shape: the SAS ingestion
//! pipeline (detect → cluster → track → pre-render per segment) over a
//! full-length multi-segment video, run once untimed to warm the
//! process, then once serially and once per parallel worker count, with
//! a run-time parity check that every parallel catalog is
//! byte-identical to the serial one; then the
//! store-backed path — a cold ingest populating the shared FOV
//! pre-render store and a warm re-ingest served out of it, plus a
//! store-vs-delta-store playback parity check (a refinement session
//! over a delta-resident FOV rung ladder must reproduce the
//! full-encoding ladder's report bit for bit; DESIGN.md §16) — and a
//! full-bitrate-ladder pass through [`ingest_ladder_with`], both with
//! the same parity discipline. Emits `BENCH_ingest.json` so the
//! cloud-scaling trajectory has data points (ROADMAP: the cloud side
//! ingests every upload once and serves many).
//!
//! The scaling study mirrors `fleet_bench`: per-segment costs are read
//! off the serial timed run's `ingest_segment` timeline intervals and
//! replayed through the chunked-schedule model
//! ([`simulate_chunked_makespan`](evr_bench::scaling)) — the **gated**
//! speedup / efficiency numbers, reproducible on any host (a real
//! worker sweep in a single-core CI container measures the OS
//! timeslicer, not the scheduler). The real sweep is attached as
//! `measured` points, the old static interleave's modeled makespan is
//! reported for comparison, and the widest timed run is written as a
//! Chrome Trace Event file (`*.trace_events.json`, chrome://tracing or
//! Perfetto).
//!
//! Exits non-zero if any parity check fails, which is what the CI smoke
//! step relies on:
//!
//! ```text
//! cargo run --release -p evr-bench --bin ingest_bench -- --smoke json=BENCH_ingest.json
//! cargo run --release -p evr-bench --bin ingest_bench -- duration=60 workers=8
//! ```
//!
//! Timings vary across machines, so the JSON is not golden-diffed —
//! only the `parity_ok` flags are load-bearing in CI.

use std::time::Instant;

use evr_bench::header;
use evr_bench::scaling::{
    simulate_chunked_makespan, simulate_interleave_makespan, stage_scaling, ScalingPoint,
    ScalingSummary,
};
use evr_client::refine::run_refinement_session;
use evr_energy::DeviceParams;
use evr_obs::{names, Observer, Timeline, TimelineEvent, DEFAULT_TIMELINE_CAPACITY};
use evr_sas::{
    fov_rung_quantizers, ingest_ladder_with, ingest_video_with, populate_fov_ladder,
    FovPrerenderStore, IngestOptions, SasCatalog, SasConfig, SasServer,
};
use evr_video::library::{scene_for, VideoId};
use evr_video::scene::Scene;

/// The production bitrate ladder: five rungs, coarsest first — the
/// shape a content provider publishes for ABR (paper §2).
const LADDER_RUNGS: &[u8] = &[32, 24, 18, 13, 10];

/// Smoke-mode content length, seconds: enough segments that every
/// worker pulls several chunks, short enough for the CI bench step.
const SMOKE_DURATION_S: f64 = 20.0;

struct IngestArgs {
    duration_s: f64,
    max_workers: usize,
    json: Option<String>,
    trace: Option<String>,
}

impl Default for IngestArgs {
    fn default() -> Self {
        IngestArgs {
            duration_s: evr_video::library::SCENE_DURATION,
            max_workers: 8,
            json: None,
            trace: None,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> IngestArgs {
    let mut out = IngestArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            out.duration_s = SMOKE_DURATION_S;
        } else if let Some(v) = arg.strip_prefix("duration=") {
            out.duration_s = v.parse().expect("duration=S takes seconds");
        } else if let Some(v) = arg.strip_prefix("workers=") {
            out.max_workers = v.parse().expect("workers=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("trace=") {
            out.trace = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `--smoke`, `duration=S`, `workers=N`, \
                 `json=PATH` or `trace=PATH`"
            );
        }
    }
    out
}

struct WorkerResult {
    workers: usize,
    wall_s: f64,
    parity_ok: bool,
}

struct StoreResult {
    cold_s: f64,
    warm_s: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: u64,
    entries: usize,
    /// Residency of the full FOV rung ladder with lower rungs held as
    /// deltas against the top rung (DESIGN.md §16).
    delta_resident_bytes: u64,
    delta_entries: usize,
    parity_ok: bool,
}

struct LadderResult {
    rungs: usize,
    serial_s: f64,
    parallel_s: f64,
    parity_ok: bool,
}

fn ingest(scene: &Scene, cfg: &SasConfig, duration_s: f64, options: &IngestOptions) -> SasCatalog {
    ingest_video_with(scene, cfg, duration_s, options).expect("bench ingest must succeed")
}

/// The worker-count sweep: 1 (the serial reference), then doubling up to
/// the requested maximum, deduplicated.
fn worker_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1];
    let mut w = 2;
    while w < max {
        counts.push(w);
        w *= 2;
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

struct IngestScaling {
    summary: ScalingSummary,
    serial_segments_per_s: f64,
    segments_per_s: f64,
    modeled_chunked_wall_s: f64,
    modeled_interleave_wall_s: f64,
    timeline: Timeline,
}

/// One ingest run with a timeline attached, returning the captured
/// `ingest_segment` intervals.
fn timed_ingest(
    scene: &Scene,
    cfg: &SasConfig,
    args: &IngestArgs,
    workers: usize,
) -> (Vec<TimelineEvent>, Timeline) {
    let timeline = Timeline::bounded(DEFAULT_TIMELINE_CAPACITY);
    let options = IngestOptions {
        workers,
        observer: Observer::enabled().with_timeline(timeline.clone()),
        ..IngestOptions::default()
    };
    let _ = ingest(scene, cfg, args.duration_s, &options);
    (timeline.events(), timeline)
}

/// Per-segment costs in ascending segment order, read off the
/// `ingest_segment` intervals of a (serial) timed run.
fn segment_costs(events: &[TimelineEvent]) -> Vec<f64> {
    let mut costs: Vec<(i64, f64)> = events
        .iter()
        .filter(|e| e.stage == names::TIMELINE_INGEST_SEGMENT)
        .map(|e| (e.ctx.segment, e.duration_ns() as f64 / 1e9))
        .collect();
    costs.sort_by_key(|(seg, _)| *seg);
    costs.into_iter().map(|(_, c)| c).collect()
}

/// The scaling study: a timed serial ingest yields per-segment costs
/// for the chunked-schedule model (the gated numbers); the real sweep
/// becomes the `measured` reference points; a timed widest ingest
/// gives the per-stage attribution and the Chrome trace artifact.
fn run_scaling(
    scene: &Scene,
    cfg: &SasConfig,
    args: &IngestArgs,
    sweep: &[WorkerResult],
    segments: u32,
) -> Option<IngestScaling> {
    let counts = worker_counts(args.max_workers);
    let measured: Vec<ScalingPoint> =
        sweep.iter().map(|r| ScalingPoint { workers: r.workers, wall_s: r.wall_s }).collect();
    let (serial_events, _) = timed_ingest(scene, cfg, args, 1);
    let costs = segment_costs(&serial_events);
    let summary = ScalingSummary::fit_modeled(&costs, &counts)?;
    let (parallel_events, timeline) = timed_ingest(scene, cfg, args, summary.workers);
    let stages = stage_scaling(&serial_events, &parallel_events, summary.workers);
    let serial_wall = measured.iter().find(|p| p.workers == 1).map_or(f64::NAN, |p| p.wall_s);
    let modeled_chunked_wall_s = simulate_chunked_makespan(&costs, summary.workers, 0);
    let modeled_interleave_wall_s = simulate_interleave_makespan(&costs, summary.workers);
    Some(IngestScaling {
        serial_segments_per_s: segments as f64 / serial_wall,
        segments_per_s: segments as f64 / modeled_chunked_wall_s,
        modeled_chunked_wall_s,
        modeled_interleave_wall_s,
        summary: summary.with_stages(stages).with_measured(measured),
        timeline,
    })
}

/// Splices the throughput fields into the summary's JSON object so the
/// gate can address them as `scaling.segments_per_s`.
fn scaling_json(s: &IngestScaling) -> String {
    let summary = s.summary.to_json();
    let inner = summary.strip_prefix('{').and_then(|t| t.strip_suffix('}')).unwrap_or(&summary);
    format!(
        "{{\"serial_segments_per_s\": {:.6}, \"segments_per_s\": {:.6}, \
         \"modeled_chunked_wall_s\": {:.6}, \"modeled_interleave_wall_s\": {:.6}, {}}}",
        s.serial_segments_per_s,
        s.segments_per_s,
        s.modeled_chunked_wall_s,
        s.modeled_interleave_wall_s,
        inner
    )
}

/// Stable JSON: fixed key order, floats `{:.6}`, one sweep point per line.
fn bench_json(
    args: &IngestArgs,
    serial_s: f64,
    sweep: &[WorkerResult],
    store: &StoreResult,
    ladder: &LadderResult,
    scaling: Option<&IngestScaling>,
) -> String {
    let parity_ok = sweep.iter().all(|r| r.parity_ok) && store.parity_ok && ladder.parity_ok;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"duration_s\": {:.6}, \"max_workers\": {}, \"parity_ok\": {},\n",
        args.duration_s, args.max_workers, parity_ok
    ));
    out.push_str("  \"workers\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"parity_ok\": {}, \"wall_s\": {:.6}, \"speedup\": {:.6}}}{}\n",
            r.workers,
            r.parity_ok,
            r.wall_s,
            serial_s / r.wall_s,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"store\": {{\"parity_ok\": {}, \"cold_s\": {:.6}, \"warm_s\": {:.6}, \
         \"warm_speedup\": {:.6}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"resident_bytes\": {}, \"entries\": {}, \"delta_resident_bytes\": {}, \
         \"delta_entries\": {}}},\n",
        store.parity_ok,
        store.cold_s,
        store.warm_s,
        store.cold_s / store.warm_s,
        store.hits,
        store.misses,
        store.evictions,
        store.resident_bytes,
        store.entries,
        store.delta_resident_bytes,
        store.delta_entries
    ));
    out.push_str(&format!(
        "  \"ladder\": {{\"parity_ok\": {}, \"rungs\": {}, \"serial_s\": {:.6}, \
         \"parallel_s\": {:.6}, \"speedup\": {:.6}}}",
        ladder.parity_ok,
        ladder.rungs,
        ladder.serial_s,
        ladder.parallel_s,
        ladder.serial_s / ladder.parallel_s
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
    header("ingest_bench", "SAS segment ingest: serial loop vs chunked parallel fan-out");
    println!("{:.1}s of content, up to {} workers", args.duration_s, args.max_workers);

    let scene = scene_for(VideoId::Rs);
    let cfg = SasConfig::tiny_for_tests();

    // One untimed ingest of the same content first: the sweep's 1-worker
    // pass is its speedup base, and would otherwise alone pay the cold
    // start of the process-wide `SamplingMapCache`.
    let _ = ingest(&scene, &cfg, args.duration_s, &IngestOptions::default());

    // Worker sweep, store-less: every count must reproduce the serial
    // catalog byte for byte.
    let mut serial_s = 0.0;
    let mut reference: Option<SasCatalog> = None;
    let mut sweep = Vec::new();
    for workers in worker_counts(args.max_workers) {
        let options = IngestOptions { workers, ..IngestOptions::default() };
        let start = Instant::now();
        let catalog = ingest(&scene, &cfg, args.duration_s, &options);
        let wall_s = start.elapsed().as_secs_f64();
        let parity_ok = match &reference {
            None => {
                serial_s = wall_s;
                reference = Some(catalog);
                true
            }
            Some(reference) => *reference == catalog,
        };
        println!(
            "  {workers:>2} workers: {wall_s:.2}s ({:.2}x), parity {}",
            serial_s / wall_s,
            if parity_ok { "ok" } else { "FAIL" }
        );
        sweep.push(WorkerResult { workers, wall_s, parity_ok });
    }
    let reference = reference.expect("sweep ran");

    // Store-backed: a cold ingest renders and publishes every pre-render
    // once; a warm re-ingest of the same content is pure store hits.
    let fov_store = FovPrerenderStore::new();
    let options = IngestOptions {
        workers: args.max_workers,
        store: Some(fov_store.clone()),
        ..IngestOptions::default()
    };
    let start = Instant::now();
    let cold = ingest(&scene, &cfg, args.duration_s, &options);
    let cold_s = start.elapsed().as_secs_f64();
    let cold_stats = fov_store.stats();
    let start = Instant::now();
    let warm = ingest(&scene, &cfg, args.duration_s, &options);
    let warm_s = start.elapsed().as_secs_f64();
    let warm_stats = fov_store.stats();

    // Delta-resident rung ladder over the same catalog: lower FOV rungs
    // held as residuals against the top rung must serve a playback
    // session bit-identically to a ladder of independent full encodings
    // (DESIGN.md §16) — the report compares everything, down to the
    // energy ledger and the played-out content digest.
    let rungs = fov_rung_quantizers(&cfg);
    let full_ladder = FovPrerenderStore::new();
    populate_fov_ladder(&cold, &full_ladder, &rungs, args.max_workers, false);
    let delta_ladder = FovPrerenderStore::new();
    populate_fov_ladder(&cold, &delta_ladder, &rungs, args.max_workers, true);
    let delta_resident_bytes = delta_ladder.resident_bytes();
    let delta_entries = delta_ladder.delta_entries();
    let picks: Vec<(u32, usize)> = (0..cold.segment_count())
        .filter_map(|s| cold.clusters_in_segment(s).first().map(|&c| (s, c)))
        .collect();
    let device = DeviceParams::default();
    let play = |ladder: FovPrerenderStore| {
        let server = SasServer::with_store(cold.clone(), ladder);
        run_refinement_session(&server, &picks, rungs[0], false, &device)
            .expect("refinement session over the bench catalog")
    };
    let ladder_parity = play(full_ladder) == play(delta_ladder);

    let parity_ok = reference == cold
        && reference == warm
        && warm_stats.misses == cold_stats.misses // warm ingest never re-renders
        && warm_stats.hits > cold_stats.hits
        && ladder_parity;
    let store = StoreResult {
        cold_s,
        warm_s,
        hits: warm_stats.hits,
        misses: warm_stats.misses,
        evictions: warm_stats.evictions,
        resident_bytes: fov_store.resident_bytes(),
        entries: fov_store.len(),
        delta_resident_bytes,
        delta_entries,
        parity_ok,
    };
    println!(
        "  store: cold {:.2}s, warm {:.2}s ({:.2}x), {} hits / {} misses, \
         {} entries resident ({} bytes), delta ladder {} bytes \
         ({} delta entries, playback parity {}), parity {}",
        store.cold_s,
        store.warm_s,
        store.cold_s / store.warm_s,
        store.hits,
        store.misses,
        store.entries,
        store.resident_bytes,
        store.delta_resident_bytes,
        store.delta_entries,
        if ladder_parity { "ok" } else { "FAIL" },
        if store.parity_ok { "ok" } else { "FAIL" }
    );

    // Full bitrate ladder: the content provider's ABR encode of the same
    // upload, serial vs parallel, byte-identical like every fan-out.
    let start = Instant::now();
    let ladder_serial = ingest_ladder_with(&scene, &cfg, LADDER_RUNGS, args.duration_s, 1)
        .expect("bench ladder ingests");
    let ladder_serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let ladder_parallel =
        ingest_ladder_with(&scene, &cfg, LADDER_RUNGS, args.duration_s, args.max_workers)
            .expect("bench ladder ingests");
    let ladder_parallel_s = start.elapsed().as_secs_f64();
    let ladder = LadderResult {
        rungs: LADDER_RUNGS.len(),
        serial_s: ladder_serial_s,
        parallel_s: ladder_parallel_s,
        parity_ok: ladder_serial == ladder_parallel,
    };
    println!(
        "  ladder: {} rungs, serial {:.2}s, parallel {:.2}s ({:.2}x), parity {}",
        ladder.rungs,
        ladder.serial_s,
        ladder.parallel_s,
        ladder.serial_s / ladder.parallel_s,
        if ladder.parity_ok { "ok" } else { "FAIL" }
    );

    let scaling = run_scaling(&scene, &cfg, &args, &sweep, reference.segment_count());
    match &scaling {
        Some(s) => {
            println!("  modeled {}", s.summary.render_line());
            println!(
                "  modeled makespan at {} workers: chunked {:.2}s vs static interleave {:.2}s",
                s.summary.workers, s.modeled_chunked_wall_s, s.modeled_interleave_wall_s
            );
            println!(
                "  throughput: serial {:.1} segments/s measured, parallel {:.1} segments/s modeled",
                s.serial_segments_per_s, s.segments_per_s
            );
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
        let json = bench_json(&args, serial_s, &sweep, &store, &ladder, scaling.as_ref());
        std::fs::write(path, &json).expect("write ingest bench JSON");
        println!("json: {path}");
    }

    // Widest timed ingest as a Chrome Trace Event artifact.
    let trace_path = args.trace.clone().or_else(|| {
        args.json.as_ref().map(|p| {
            p.strip_suffix(".json").map_or_else(
                || format!("{p}.trace_events.json"),
                |stem| format!("{stem}.trace_events.json"),
            )
        })
    });
    if let (Some(path), Some(s)) = (&trace_path, &scaling) {
        s.timeline.write_chrome_trace(path).expect("write ingest trace");
        println!("trace: {path}");
    }

    if !(sweep.iter().all(|r| r.parity_ok) && store.parity_ok && ladder.parity_ok) {
        eprintln!(
            "parity FAILED: parallel, store-backed, or ladder ingest diverged from the serial loop"
        );
        std::process::exit(1);
    }
}
