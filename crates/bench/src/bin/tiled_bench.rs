//! Tiled-delivery benchmark for the `T`/`T+H` variants: the per-tile
//! multi-rate ingest across a worker sweep (parity-checked against the
//! serial catalog), the spherical rate allocator's per-segment cost,
//! and end-to-end fleet parity of both tiled variants across 1/2/8
//! playback workers.
//!
//! Everything except the wall clocks is deterministic: the catalog is a
//! pure function of `(scene, config)`, the allocator of its inputs, and
//! the fleet runs of `(system, variant, users)` — so the parity flags
//! reproduce bit-for-bit anywhere. The gated throughput numbers
//! (tile-rung encodes/s, allocations/s) are best-of-N wall clocks:
//!
//! ```text
//! cargo run --release -p evr-bench --bin tiled_bench -- --smoke json=BENCH_tiled.json
//! cargo run --release -p evr-bench --bin tiled_bench -- duration=20 workers=8
//! ```
//!
//! `bench_gate` compares `parity_ok`, `scaling.tile_rungs_per_s` and
//! `scaling.allocations_per_s` against `benches/baselines/tiled.json`.

use std::time::Instant;

use evr_bench::header;
use evr_client::allocate_tile_rungs;
use evr_core::{run_variant, EvrSystem, ExperimentConfig, UseCase, Variant};
use evr_math::EulerAngles;
use evr_sas::{ingest_tiled_rates_with, SasConfig, PERIPHERY_MARGIN};
use evr_video::library::{scene_for, VideoId};

/// Smoke-mode content length, seconds: enough segments that every
/// ingest worker pulls several chunks.
const SMOKE_DURATION_S: f64 = 10.0;

/// Timed repetitions; best-of-N damps scheduler noise in the gated
/// numbers.
const TIMING_REPS: usize = 3;

struct TiledArgs {
    duration_s: f64,
    max_workers: usize,
    json: Option<String>,
}

impl Default for TiledArgs {
    fn default() -> Self {
        TiledArgs { duration_s: evr_video::library::SCENE_DURATION, max_workers: 8, json: None }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> TiledArgs {
    let mut out = TiledArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            out.duration_s = SMOKE_DURATION_S;
        } else if let Some(v) = arg.strip_prefix("duration=") {
            out.duration_s = v.parse().expect("duration=S takes seconds");
        } else if let Some(v) = arg.strip_prefix("workers=") {
            out.max_workers = v.parse().expect("workers=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `--smoke`, `duration=S`, `workers=N` \
                 or `json=PATH`"
            );
        }
    }
    out
}

struct IngestResult {
    workers: usize,
    wall_s: f64,
    parity_ok: bool,
}

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

/// Allocator cost over every `(segment, pose)` of the catalog; returns
/// (best wall seconds, allocations timed per rep).
fn time_allocator(tiles: &evr_sas::TiledRateCatalog, cfg: &SasConfig) -> (f64, u64) {
    let grid = tiles.grid();
    let weights = grid.tile_weights();
    let poses = [
        EulerAngles::from_degrees(0.0, 0.0, 0.0),
        EulerAngles::from_degrees(120.0, -30.0, 0.0),
        EulerAngles::from_degrees(-90.0, 60.0, 0.0),
    ];
    // Budget between coarse-sum and top-sum so the greedy loop does real
    // work (an unconstrained budget short-circuits at every tile's cap).
    let matrices: Vec<_> = (0..tiles.segment_count()).map(|s| tiles.tile_rung_bytes(s)).collect();
    // Enough rounds over the full (segment, pose) grid that the timed
    // region is tens of milliseconds — a single pass is ~0.1 ms, far too
    // short to gate against a 15% noise tolerance.
    const ALLOC_ROUNDS: u64 = 500;
    let mut best = f64::INFINITY;
    let mut count = 0u64;
    for _ in 0..TIMING_REPS {
        count = 0;
        let start = Instant::now();
        for _ in 0..ALLOC_ROUNDS {
            for matrix in &matrices {
                let base: u64 = matrix.iter().map(|t| t[0]).sum();
                let top: u64 = matrix.iter().map(|t| *t.last().unwrap()).sum();
                for pose in poses {
                    let classes = grid.classify_tiles(pose, cfg.device_fov, PERIPHERY_MARGIN);
                    let alloc =
                        allocate_tile_rungs(matrix, &weights, &classes, base + (top - base) / 2);
                    assert!(alloc.total_bytes > 0, "allocator returned an empty plan");
                    count += 1;
                }
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, count)
}

/// Fleet parity: both tiled variants must aggregate byte-identically
/// across 1, 2 and 8 playback workers.
fn fleet_parity(system: &EvrSystem) -> bool {
    Variant::TILED.iter().all(|&variant| {
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let cfg = ExperimentConfig { users: 3, threads };
                run_variant(system, UseCase::OnlineStreaming, variant, &cfg)
            })
            .collect();
        runs[0] == runs[1] && runs[0] == runs[2]
    })
}

/// Stable JSON: fixed key order, floats `{:.6}`, one sweep point per
/// line, plus the `scaling` section `bench_gate` addresses.
fn bench_json(
    args: &TiledArgs,
    sweep: &[IngestResult],
    fleet_ok: bool,
    tile_rungs: u64,
    tile_rungs_per_s: f64,
    alloc_wall_s: f64,
    allocations: u64,
) -> String {
    let parity_ok = fleet_ok && sweep.iter().all(|r| r.parity_ok);
    let serial_s = sweep.first().map_or(f64::NAN, |r| r.wall_s);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"duration_s\": {:.6}, \"max_workers\": {}, \"parity_ok\": {parity_ok},\n",
        args.duration_s, args.max_workers
    ));
    out.push_str("  \"ingest\": [\n");
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
    out.push_str(&format!("  \"fleet\": {{\"parity_ok\": {fleet_ok}, \"threads\": [1, 2, 8]}},\n"));
    out.push_str(&format!(
        "  \"scaling\": {{\"tile_rungs\": {tile_rungs}, \"tile_rungs_per_s\": {tile_rungs_per_s:.6}, \
         \"allocations\": {allocations}, \"allocations_per_s\": {:.6}, \
         \"allocation_us\": {:.6}}}\n",
        allocations as f64 / alloc_wall_s,
        1e6 * alloc_wall_s / allocations as f64
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("tiled_bench", "per-tile multi-rate ingest, rate allocator and tiled fleet parity");
    println!("{:.1}s of content, up to {} ingest workers", args.duration_s, args.max_workers);

    let scene = scene_for(VideoId::Rhino);
    let cfg = SasConfig::tiny_for_tests();

    // Ingest worker sweep: every count must reproduce the serial catalog
    // byte for byte. The gated throughput is tile-rung encodes per
    // second from the best wall clock of the sweep (best-of-N per
    // count).
    let mut sweep: Vec<IngestResult> = Vec::new();
    let mut reference = None;
    for workers in worker_counts(args.max_workers) {
        let mut wall_s = f64::INFINITY;
        let mut catalog = None;
        for _ in 0..TIMING_REPS {
            let start = Instant::now();
            let cat = ingest_tiled_rates_with(&scene, &cfg, args.duration_s, workers);
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            catalog = Some(cat);
        }
        let catalog = catalog.expect("TIMING_REPS > 0");
        let parity_ok = match &reference {
            None => {
                reference = Some(catalog);
                true
            }
            Some(reference) => *reference == catalog,
        };
        println!(
            "  {workers:>2} workers: {wall_s:.2}s ({:.2}x), parity {}",
            sweep.first().map_or(1.0, |r: &IngestResult| r.wall_s / wall_s),
            if parity_ok { "ok" } else { "FAIL" }
        );
        sweep.push(IngestResult { workers, wall_s, parity_ok });
    }
    let tiles = reference.expect("sweep ran");
    let tile_rungs =
        u64::from(tiles.segment_count()) * tiles.grid().len() as u64 * tiles.rung_count() as u64;
    let best_ingest_s = sweep.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let tile_rungs_per_s = tile_rungs as f64 / best_ingest_s;
    println!("  {tile_rungs} tile-rung encodes, best {tile_rungs_per_s:.0}/s");

    let (alloc_wall_s, allocations) = time_allocator(&tiles, &cfg);
    println!(
        "  allocator: {allocations} allocations in {alloc_wall_s:.4}s \
         ({:.1} µs per segment plan)",
        1e6 * alloc_wall_s / allocations as f64
    );

    let system = EvrSystem::build(VideoId::Rhino, cfg, args.duration_s.min(2.0));
    let fleet_ok = fleet_parity(&system);
    println!(
        "  fleet parity (T, T+H across 1/2/8 workers): {}",
        if fleet_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = &args.json {
        let json = bench_json(
            &args,
            &sweep,
            fleet_ok,
            tile_rungs,
            tile_rungs_per_s,
            alloc_wall_s,
            allocations,
        );
        std::fs::write(path, &json).expect("write tiled bench JSON");
        println!("json: {path}");
    }

    if !(fleet_ok && sweep.iter().all(|r| r.parity_ok)) {
        eprintln!("parity FAILED: tiled ingest or fleet runs diverged");
        std::process::exit(1);
    }
}
