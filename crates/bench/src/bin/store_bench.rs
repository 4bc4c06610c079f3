//! Delta-resident FOV pre-render store benchmark: residency and wire
//! savings of DESIGN.md §16, with the same run-time parity discipline
//! as `ingest_bench`.
//!
//! Ingests the bench catalog once, then populates the full FOV rung
//! ladder ([`fov_rung_quantizers`]) into two stores — every rung an
//! independent full encoding vs lower rungs delta-resident against the
//! top rung ([`populate_fov_ladder`]) — and checks that every entry of
//! the delta store reconstructs bit-identically to the full store's,
//! for any worker count. On the wire side it replays a per-user
//! coarse-then-upgrade refinement session ([`run_refinement_session`])
//! once over the full wire and once over the delta wire
//! ([`DeltaWire`]), pinning that the played-out content digests match
//! while the delta arm moves fewer upgrade bytes and visibly charges
//! the on-device reconstruction to the energy ledger.
//!
//! Emits `BENCH_store.json`; `bench_gate` pins `resident_reduction`
//! and `wire_reduction` against `benches/baselines/store.json`. Both
//! reductions are deterministic (byte accounting, not timings), so the
//! gate holds them tightly. Exits non-zero if any parity check fails:
//!
//! ```text
//! cargo run --release -p evr-bench --bin store_bench -- --smoke json=BENCH_store.json
//! cargo run --release -p evr-bench --bin store_bench -- duration=60 workers=8
//! ```

use std::time::Instant;

use evr_bench::header;
use evr_client::pipeline::{CleanTransport, DeltaWire};
use evr_client::refine::run_refinement_session;
use evr_energy::{Activity, DeviceParams};
use evr_sas::{
    fov_rung_quantizers, ingest_video_with, populate_fov_ladder, FovPrerenderStore, IngestOptions,
    PrerenderKey, SasCatalog, SasConfig, SasServer,
};
use evr_video::library::{scene_for, VideoId};

/// Smoke-mode content length, seconds — matches `ingest_bench`.
const SMOKE_DURATION_S: f64 = 20.0;

/// The acceptance floor: the delta ladder must shed at least this
/// fraction of the full ladder's residency on the bench catalog.
const RESIDENT_REDUCTION_FLOOR: f64 = 0.30;

struct StoreArgs {
    duration_s: f64,
    workers: usize,
    json: Option<String>,
}

impl Default for StoreArgs {
    fn default() -> Self {
        StoreArgs { duration_s: evr_video::library::SCENE_DURATION, workers: 8, json: None }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> StoreArgs {
    let mut out = StoreArgs::default();
    for arg in args {
        if arg == "--smoke" || arg == "smoke" || arg == "quick" {
            out.duration_s = SMOKE_DURATION_S;
        } else if let Some(v) = arg.strip_prefix("duration=") {
            out.duration_s = v.parse().expect("duration=S takes seconds");
        } else if let Some(v) = arg.strip_prefix("workers=") {
            out.workers = v.parse().expect("workers=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else {
            panic!("unknown argument {arg:?}; expected `--smoke`, `duration=S`, `workers=N` or `json=PATH`");
        }
    }
    out
}

struct ResidencyResult {
    rungs: usize,
    entries: usize,
    delta_entries: usize,
    full_resident_bytes: u64,
    delta_resident_bytes: u64,
    resident_reduction: f64,
    populate_full_s: f64,
    populate_delta_s: f64,
    parity_ok: bool,
}

struct WireResult {
    segments: u32,
    full_wire_bytes: u64,
    delta_wire_bytes: u64,
    wire_reduction: f64,
    /// The coarse-rung leg, identical on both wires.
    coarse_wire_bytes: u64,
    full_upgrade_wire_bytes: u64,
    delta_upgrade_wire_bytes: u64,
    /// Reduction of the upgrade leg alone — the part the delta wire
    /// actually compresses.
    upgrade_reduction: f64,
    delta_upgrades: u32,
    residual_coeffs: u64,
    delta_reconstruct_j: f64,
    parity_ok: bool,
}

/// Every `(segment, cluster, rung)` the ladder populates.
fn ladder_keys(catalog: &SasCatalog, rungs: &[u8]) -> Vec<PrerenderKey> {
    let content = catalog.content_id();
    (0..catalog.segment_count())
        .flat_map(|s| {
            catalog.clusters_in_segment(s).into_iter().flat_map(move |c| {
                rungs
                    .iter()
                    .map(move |&q| PrerenderKey { content, segment: s, cluster: c, rung: q })
                    .collect::<Vec<_>>()
            })
        })
        .collect()
}

/// Full vs delta ladder residency, bit-exact reconstruction parity, and
/// worker independence of the delta population.
fn run_residency(catalog: &SasCatalog, rungs: &[u8], workers: usize) -> ResidencyResult {
    let full = FovPrerenderStore::new();
    let start = Instant::now();
    populate_fov_ladder(catalog, &full, rungs, workers, false);
    let populate_full_s = start.elapsed().as_secs_f64();

    let delta = FovPrerenderStore::new();
    let start = Instant::now();
    populate_fov_ladder(catalog, &delta, rungs, workers, true);
    let populate_delta_s = start.elapsed().as_secs_f64();

    let serial = FovPrerenderStore::new();
    populate_fov_ladder(catalog, &serial, rungs, 1, true);

    let keys = ladder_keys(catalog, rungs);
    let mut parity_ok = !keys.is_empty()
        && serial.resident_bytes() == delta.resident_bytes()
        && serial.delta_entries() == delta.delta_entries();
    for key in &keys {
        let (a, b, c) = (full.get(key), delta.get(key), serial.get(key));
        parity_ok &= match (a, b, c) {
            (Some(a), Some(b), Some(c)) => a.data == b.data && a.meta == b.meta && b.data == c.data,
            _ => false,
        };
    }

    let full_resident_bytes = full.resident_bytes();
    let delta_resident_bytes = delta.resident_bytes();
    ResidencyResult {
        rungs: rungs.len(),
        entries: delta.len(),
        delta_entries: delta.delta_entries(),
        full_resident_bytes,
        delta_resident_bytes,
        resident_reduction: 1.0 - delta_resident_bytes as f64 / full_resident_bytes as f64,
        populate_full_s,
        populate_delta_s,
        parity_ok,
    }
}

/// Per-user wire accounting: one refinement session over the full wire,
/// one over the delta wire, against the same server.
fn run_wire(server: &SasServer, coarse_quantizer: u8) -> WireResult {
    let catalog = server.catalog();
    let picks: Vec<(u32, usize)> = (0..catalog.segment_count())
        .filter_map(|s| catalog.clusters_in_segment(s).first().map(|&c| (s, c)))
        .collect();
    let device = DeviceParams::default();
    let full = run_refinement_session(&CleanTransport, server, &picks, coarse_quantizer, &device)
        .expect("full-wire refinement session");
    let delta = run_refinement_session(
        &DeltaWire(CleanTransport),
        server,
        &picks,
        coarse_quantizer,
        &device,
    )
    .expect("delta-wire refinement session");

    let delta_reconstruct_j = delta.ledger.activity_total(Activity::DeltaReconstruct);
    let parity_ok = full.content_digest == delta.content_digest
        && full.segments == delta.segments
        && full.coarse_wire_bytes == delta.coarse_wire_bytes
        && delta_reconstruct_j > 0.0
        && full.ledger.activity_total(Activity::DeltaReconstruct) == 0.0;
    WireResult {
        segments: delta.segments,
        full_wire_bytes: full.wire_bytes,
        delta_wire_bytes: delta.wire_bytes,
        wire_reduction: 1.0 - delta.wire_bytes as f64 / full.wire_bytes as f64,
        coarse_wire_bytes: delta.coarse_wire_bytes,
        full_upgrade_wire_bytes: full.upgrade_wire_bytes,
        delta_upgrade_wire_bytes: delta.upgrade_wire_bytes,
        upgrade_reduction: 1.0 - delta.upgrade_wire_bytes as f64 / full.upgrade_wire_bytes as f64,
        delta_upgrades: delta.delta_upgrades,
        residual_coeffs: delta.residual_coeffs,
        delta_reconstruct_j,
        parity_ok,
    }
}

/// Stable JSON: fixed key order, floats `{:.6}` (energy `{:.9}` — the
/// per-session reconstruction charge is millijoule-scale).
fn bench_json(args: &StoreArgs, store: &ResidencyResult, wire: &WireResult) -> String {
    let meets_floor = store.resident_reduction >= RESIDENT_REDUCTION_FLOOR;
    format!(
        "{{\n  \"duration_s\": {:.6}, \"workers\": {}, \"parity_ok\": {},\n  \
         \"store\": {{\"parity_ok\": {}, \"rungs\": {}, \"entries\": {}, \"delta_entries\": {}, \
         \"full_resident_bytes\": {}, \"delta_resident_bytes\": {}, \
         \"resident_reduction\": {:.6}, \"meets_reduction_floor\": {}, \
         \"populate_full_s\": {:.6}, \"populate_delta_s\": {:.6}}},\n  \
         \"wire\": {{\"parity_ok\": {}, \"segments\": {}, \"full_wire_bytes\": {}, \
         \"delta_wire_bytes\": {}, \"wire_reduction\": {:.6}, \"coarse_wire_bytes\": {}, \
         \"full_upgrade_wire_bytes\": {}, \"delta_upgrade_wire_bytes\": {}, \
         \"upgrade_reduction\": {:.6}, \"delta_upgrades\": {}, \
         \"residual_coeffs\": {}, \"delta_reconstruct_j\": {:.9}}}\n}}\n",
        args.duration_s,
        args.workers,
        store.parity_ok && wire.parity_ok,
        store.parity_ok,
        store.rungs,
        store.entries,
        store.delta_entries,
        store.full_resident_bytes,
        store.delta_resident_bytes,
        store.resident_reduction,
        meets_floor,
        store.populate_full_s,
        store.populate_delta_s,
        wire.parity_ok,
        wire.segments,
        wire.full_wire_bytes,
        wire.delta_wire_bytes,
        wire.wire_reduction,
        wire.coarse_wire_bytes,
        wire.full_upgrade_wire_bytes,
        wire.delta_upgrade_wire_bytes,
        wire.upgrade_reduction,
        wire.delta_upgrades,
        wire.residual_coeffs,
        wire.delta_reconstruct_j,
    )
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("store_bench", "delta-resident FOV ladder: store residency and upgrade wire bytes");
    println!("{:.1}s of content, {} workers", args.duration_s, args.workers);

    let scene = scene_for(VideoId::Rhino);
    let cfg = SasConfig::tiny_for_tests();
    let options = IngestOptions { workers: args.workers, ..IngestOptions::default() };
    let catalog = ingest_video_with(&scene, &cfg, args.duration_s, &options)
        .expect("bench ingest must succeed");
    let rungs = fov_rung_quantizers(catalog.config());

    let store = run_residency(&catalog, &rungs, args.workers);
    println!(
        "  store: {} rungs x {} streams = {} entries ({} delta-resident), \
         full {} B vs delta {} B (-{:.1}%), parity {}",
        store.rungs,
        store.entries / store.rungs,
        store.entries,
        store.delta_entries,
        store.full_resident_bytes,
        store.delta_resident_bytes,
        store.resident_reduction * 100.0,
        if store.parity_ok { "ok" } else { "FAIL" }
    );

    // The wire side runs against a store holding the delta ladder, but
    // serving reads only its top rungs: a rung fetch transcodes the top
    // and an upgrade is one pass over it (DESIGN.md §16).
    let ladder_store = FovPrerenderStore::new();
    populate_fov_ladder(&catalog, &ladder_store, &rungs, args.workers, true);
    let server = SasServer::with_store(catalog, ladder_store);
    let wire = run_wire(&server, rungs[0]);
    println!(
        "  wire: {} segments/user, full {} B vs delta {} B (-{:.1}%; upgrade leg \
         {} B vs {} B, -{:.1}%), {} delta upgrades, {} residual coeffs, \
         {:.3e} J reconstruct, parity {}",
        wire.segments,
        wire.full_wire_bytes,
        wire.delta_wire_bytes,
        wire.wire_reduction * 100.0,
        wire.full_upgrade_wire_bytes,
        wire.delta_upgrade_wire_bytes,
        wire.upgrade_reduction * 100.0,
        wire.delta_upgrades,
        wire.residual_coeffs,
        wire.delta_reconstruct_j,
        if wire.parity_ok { "ok" } else { "FAIL" }
    );
    if store.resident_reduction < RESIDENT_REDUCTION_FLOOR {
        println!(
            "  WARNING: resident reduction {:.3} below the {:.2} floor",
            store.resident_reduction, RESIDENT_REDUCTION_FLOOR
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, bench_json(&args, &store, &wire)).expect("write store bench JSON");
        println!("json: {path}");
    }

    if !(store.parity_ok && wire.parity_ok) {
        eprintln!("parity FAILED: delta-resident store or delta wire diverged from full encodings");
        std::process::exit(1);
    }
}
