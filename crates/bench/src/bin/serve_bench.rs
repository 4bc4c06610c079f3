//! Serving-front benchmark: deterministic request storms against
//! [`SasFront`] across a shard-count sweep, reporting sustained
//! requests/s, shed rate and simulated tail latency per shard count —
//! the overload story for ROADMAP item 2 ("serves heavy traffic from
//! millions of users").
//!
//! The storm is a pure function of the seed and the arguments: arrival
//! times come from a fixed offered load (`factor=` times the aggregate
//! capacity of the reference 4-shard profile), request order from a
//! seeded linear-congruential shuffle. A fresh front per run plus the
//! serial-admission/parallel-execution split in `serve_batch` makes the
//! batch report byte-identical across worker counts; the bench checks
//! exactly that (1 vs 2 vs 8 workers) and exits non-zero on divergence,
//! which is what the CI smoke step relies on:
//!
//! ```text
//! cargo run --release -p evr-bench --bin serve_bench -- --smoke json=BENCH_serve.json
//! cargo run --release -p evr-bench --bin serve_bench -- requests=16384 factor=6
//! ```
//!
//! Wall-clock timings vary across machines, so the JSON is not
//! golden-diffed; `bench_gate` compares `parity_ok` and the
//! noise-tolerant `scaling.requests_per_s` field against
//! `benches/baselines/serve.json`.

use std::time::Instant;

use evr_bench::header;
use evr_faults::FrontProfile;
use evr_obs::{Observer, Timeline, DEFAULT_TIMELINE_CAPACITY};
use evr_sas::{
    ingest_video, BatchReport, FovPrerenderStore, FrontRequest, Request, SasCatalog, SasConfig,
    SasFront, SasServer,
};
use evr_video::library::{scene_for, VideoId};

struct ServeArgs {
    requests: usize,
    factor: f64,
    seed: u64,
    workers: usize,
    json: Option<String>,
    trace: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            requests: 65536,
            factor: 4.0,
            seed: 7,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            json: None,
            trace: None,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> ServeArgs {
    let mut out = ServeArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            // The default 64k-request storm already finishes in tens of
            // milliseconds per shard count; smoke runs it unreduced so
            // the gated wall-clock number sits well above timer noise.
        } else if let Some(v) = arg.strip_prefix("requests=") {
            out.requests = v.parse().expect("requests=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("factor=") {
            out.factor = v.parse().expect("factor=X takes a float");
        } else if let Some(v) = arg.strip_prefix("seed=") {
            out.seed = v.parse().expect("seed=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("workers=") {
            out.workers = v.parse().expect("workers=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("trace=") {
            out.trace = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `--smoke`, `requests=N`, `factor=X`, \
                 `seed=N`, `workers=N`, `json=PATH` or `trace=PATH`"
            );
        }
    }
    out
}

/// Shard counts swept, smallest to widest. The reference profile (the
/// one the offered load is computed against) is the 4-shard default.
const SHARD_SWEEP: [u32; 4] = [1, 2, 4, 8];
const REFERENCE_SHARDS: u32 = 4;

/// A seeded storm at a fixed offered load: `factor` times the aggregate
/// capacity of the reference profile, spread over every live
/// `(segment, cluster)` key with a deterministic LCG shuffle so shards
/// see interleaved (not batched) traffic.
fn storm(catalog: &SasCatalog, args: &ServeArgs) -> Vec<FrontRequest> {
    let keys: Vec<(u32, usize)> = (0..catalog.segment_count())
        .flat_map(|s| {
            catalog.clusters_in_segment(s).iter().map(move |&c| (s, c)).collect::<Vec<_>>()
        })
        .collect();
    assert!(!keys.is_empty(), "catalog has no FOV streams");
    let reference = FrontProfile { shards: REFERENCE_SHARDS, ..FrontProfile::default() };
    let offered_rps = reference.shard_capacity_rps() * f64::from(REFERENCE_SHARDS) * args.factor;
    let dt = 1.0 / offered_rps;
    let mut lcg = args.seed | 1;
    (0..args.requests)
        .map(|i| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (segment, cluster) = keys[(lcg >> 33) as usize % keys.len()];
            let request = Request::Fov { segment, cluster };
            FrontRequest { user: i as u64, request, arrival_s: i as f64 * dt }
        })
        .collect()
}

/// A fresh front over a clone of the ingested catalog with an empty
/// pre-render store — admission state is stateful by design, so every
/// measured run starts cold.
fn fresh_front(catalog: &SasCatalog, shards: u32, seed: u64) -> SasFront {
    let server = SasServer::with_store(catalog.clone(), FovPrerenderStore::new());
    SasFront::new(server, FrontProfile { shards, ..FrontProfile::default() }, seed)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct ShardResult {
    shards: u32,
    wall_s: f64,
    requests_per_s: f64,
    shed_rate: f64,
    p50_s: f64,
    p99_s: f64,
    peak_queue_depth: u32,
    served: u64,
    coalesced: u64,
}

/// Timed repetitions per shard count; best-of-N damps scheduler noise
/// in the gated wall-clock number. The batch report itself is
/// deterministic, so only the timing varies between reps.
const TIMING_REPS: usize = 5;

fn run_shard_case(
    catalog: &SasCatalog,
    args: &ServeArgs,
    requests: &[FrontRequest],
    shards: u32,
) -> ShardResult {
    let mut wall_s = f64::INFINITY;
    let mut report = None;
    for _ in 0..TIMING_REPS {
        let front = fresh_front(catalog, shards, args.seed);
        let start = Instant::now();
        let rep = front.serve_batch(requests, args.workers);
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
        report = Some(rep);
    }
    let report = report.expect("TIMING_REPS > 0");
    let lat = report.answered_latencies_s();
    ShardResult {
        shards,
        wall_s,
        requests_per_s: requests.len() as f64 / wall_s,
        shed_rate: report.shed_rate(),
        p50_s: percentile(&lat, 0.50),
        p99_s: percentile(&lat, 0.99),
        peak_queue_depth: report.peak_queue_depth,
        served: report.served,
        coalesced: report.coalesced,
    }
}

/// The worker-parity check at the reference shard count: the batch
/// report must be byte-identical for 1, 2 and 8 workers (fresh front
/// per run — determinism is across worker counts, not across runs of a
/// stateful front).
fn parity_check(catalog: &SasCatalog, args: &ServeArgs, requests: &[FrontRequest]) -> bool {
    let reports: Vec<BatchReport> = [1usize, 2, 8]
        .iter()
        .map(|&w| fresh_front(catalog, REFERENCE_SHARDS, args.seed).serve_batch(requests, w))
        .collect();
    reports[0] == reports[1] && reports[0] == reports[2]
}

/// Stable JSON: fixed key order, floats `{:.6}`, one shard count per
/// line, plus the `scaling` section `bench_gate` addresses.
fn bench_json(args: &ServeArgs, parity_ok: bool, results: &[ShardResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"requests\": {}, \"factor\": {:.6}, \"seed\": {}, \"workers\": {},\n",
        args.requests, args.factor, args.seed, args.workers
    ));
    out.push_str(&format!("  \"parity_ok\": {parity_ok},\n  \"shards\": [\n"));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"wall_s\": {:.6}, \"requests_per_s\": {:.6}, \
             \"shed_rate\": {:.6}, \"p50_latency_s\": {:.6}, \"p99_latency_s\": {:.6}, \
             \"peak_queue_depth\": {}, \"served\": {}, \"coalesced\": {}}}{}\n",
            r.shards,
            r.wall_s,
            r.requests_per_s,
            r.shed_rate,
            r.p50_s,
            r.p99_s,
            r.peak_queue_depth,
            r.served,
            r.coalesced,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // The gated throughput is the best rung of the sweep — effectively
    // best-of-20 timings, far more stable on shared runners than any
    // single rung's wall clock. Shed rate and p99 come from the widest
    // rung (deterministic model outputs, informational).
    let peak = results.iter().map(|r| r.requests_per_s).fold(f64::NAN, f64::max);
    let widest = results.last().expect("sweep is non-empty");
    out.push_str(&format!(
        "  \"scaling\": {{\"requests_per_s\": {:.6}, \"shed_rate\": {:.6}, \
         \"p99_latency_s\": {:.6}}}\n",
        peak, widest.shed_rate, widest.p99_s
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("serve_bench", "request storms against the sharded SAS serving front");
    println!(
        "{} requests at {:.1}x reference capacity, seed {}, {} workers",
        args.requests, args.factor, args.seed, args.workers
    );

    let catalog = ingest_video(&scene_for(VideoId::Rhino), &SasConfig::tiny_for_tests(), 1.0);
    let requests = storm(&catalog, &args);

    let parity_ok = parity_check(&catalog, &args, &requests);
    println!("  parity (1/2/8 workers): {}", if parity_ok { "ok" } else { "FAIL" });

    let results: Vec<ShardResult> = SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let r = run_shard_case(&catalog, &args, &requests, shards);
            println!(
                "  {:>2} shards: {:>10.0} req/s, shed {:>5.1}%, p50 {:.4}s, p99 {:.4}s, \
                 peak depth {}, coalesced {}",
                r.shards,
                r.requests_per_s,
                100.0 * r.shed_rate,
                r.p50_s,
                r.p99_s,
                r.peak_queue_depth,
                r.coalesced,
            );
            r
        })
        .collect();

    if let Some(path) = &args.json {
        let json = bench_json(&args, parity_ok, &results);
        std::fs::write(path, &json).expect("write serve bench JSON");
        println!("json: {path}");
    }

    // One observed run at the reference shard count becomes the Chrome
    // trace artifact (chrome://tracing / Perfetto).
    let trace_path = args.trace.clone().or_else(|| {
        args.json.as_ref().map(|p| {
            p.strip_suffix(".json").map_or_else(
                || format!("{p}.trace_events.json"),
                |stem| format!("{stem}.trace_events.json"),
            )
        })
    });
    if let Some(path) = &trace_path {
        let timeline = Timeline::bounded(DEFAULT_TIMELINE_CAPACITY);
        let obs = Observer::enabled().with_timeline(timeline.clone());
        let mut front = fresh_front(&catalog, REFERENCE_SHARDS, args.seed);
        front.set_observer(&obs);
        let _ = front.serve_batch(&requests, args.workers);
        front.mirror_gauges(&obs);
        timeline.write_chrome_trace(path).expect("write serve trace");
        println!("trace: {path}");
    }

    if !parity_ok {
        eprintln!("parity FAILED: batch reports diverged across worker counts");
        std::process::exit(1);
    }
}
