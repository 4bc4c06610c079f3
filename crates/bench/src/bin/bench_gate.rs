//! The CI perf-regression gate.
//!
//! Compares fresh `fleet_bench` / `ingest_bench` / `tiled_bench` /
//! `store_bench` JSON reports against the committed baselines in
//! `benches/baselines/` and exits non-zero if any noise-tolerant
//! threshold is violated (see [`evr_bench::gate`]): >15% throughput
//! drop, >0.1 absolute parallel efficiency drop, a parity break in the
//! current run, or (store) a >2% drop in the delta store's residency /
//! wire-byte reductions.
//!
//! ```text
//! # gate a run against the committed baselines
//! cargo run --release -p evr-bench --bin bench_gate -- \
//!     fleet=target/BENCH_fleet.json ingest=target/BENCH_ingest.json \
//!     baselines=benches/baselines
//!
//! # accept the current numbers as the new baseline
//! cargo run --release -p evr-bench --bin bench_gate -- \
//!     fleet=target/BENCH_fleet.json ingest=target/BENCH_ingest.json \
//!     baselines=benches/baselines --update-baseline
//! ```
//!
//! Exit codes: `0` pass (or baseline updated), `1` threshold
//! violations, `2` usage / IO / parse errors (including a missing
//! baseline — run once with `--update-baseline` to seed it).

use std::path::{Path, PathBuf};
use std::process::exit;

use evr_bench::gate::{check_fleet, check_ingest, check_store, check_tiled, GateThresholds};
use evr_bench::json::Json;

struct GateArgs {
    fleet: Option<String>,
    ingest: Option<String>,
    tiled: Option<String>,
    store: Option<String>,
    baselines: PathBuf,
    update: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> GateArgs {
    let mut out = GateArgs {
        fleet: None,
        ingest: None,
        tiled: None,
        store: None,
        baselines: PathBuf::from("benches/baselines"),
        update: false,
    };
    for arg in args {
        if let Some(v) = arg.strip_prefix("fleet=") {
            out.fleet = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("ingest=") {
            out.ingest = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("tiled=") {
            out.tiled = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("store=") {
            out.store = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("baselines=") {
            out.baselines = PathBuf::from(v);
        } else if arg == "--update-baseline" {
            out.update = true;
        } else {
            eprintln!(
                "unknown argument {arg:?}; expected `fleet=PATH`, `ingest=PATH`, \
                 `tiled=PATH`, `store=PATH`, `baselines=DIR` or `--update-baseline`"
            );
            exit(2);
        }
    }
    if out.fleet.is_none() && out.ingest.is_none() && out.tiled.is_none() && out.store.is_none() {
        eprintln!(
            "nothing to gate: pass `fleet=PATH`, `ingest=PATH`, `tiled=PATH` and/or `store=PATH`"
        );
        exit(2);
    }
    out
}

fn load(path: &Path, role: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {role} report {}: {e}", path.display());
        if role == "baseline" {
            eprintln!("seed it with `bench_gate ... --update-baseline`");
        }
        exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {role} report {}: {e}", path.display());
        exit(2);
    })
}

/// Gates (or, with `--update-baseline`, adopts) one bench's report.
/// Returns the violation messages.
fn gate_one(
    args: &GateArgs,
    current_path: &str,
    baseline_name: &str,
    check: impl Fn(&Json, &Json, &GateThresholds) -> Vec<String>,
) -> Vec<String> {
    let baseline_path = args.baselines.join(baseline_name);
    if args.update {
        std::fs::create_dir_all(&args.baselines).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", args.baselines.display());
            exit(2);
        });
        std::fs::copy(current_path, &baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot copy {current_path} to {}: {e}", baseline_path.display());
            exit(2);
        });
        println!("baseline updated: {}", baseline_path.display());
        return Vec::new();
    }
    let current = load(Path::new(current_path), "current");
    let baseline = load(&baseline_path, "baseline");
    let violations = check(&current, &baseline, &GateThresholds::default());
    if violations.is_empty() {
        println!("gate ok: {current_path} vs {}", baseline_path.display());
    }
    violations
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let mut violations = Vec::new();
    if let Some(fleet) = &args.fleet {
        violations.extend(gate_one(&args, fleet, "fleet.json", check_fleet));
    }
    if let Some(ingest) = &args.ingest {
        violations.extend(gate_one(&args, ingest, "ingest.json", check_ingest));
    }
    if let Some(tiled) = &args.tiled {
        violations.extend(gate_one(&args, tiled, "tiled.json", check_tiled));
    }
    if let Some(store) = &args.store {
        violations.extend(gate_one(&args, store, "store.json", check_store));
    }
    if !violations.is_empty() {
        eprintln!("perf gate FAILED ({} violation(s)):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!("if the regression is intended, refresh with `bench_gate ... --update-baseline`");
        exit(1);
    }
}
