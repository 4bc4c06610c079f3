//! Chaos run: replays the online-streaming S+H and T+H pipelines under
//! a ladder of fault severities (clean → mild → moderate → severe →
//! server) and reports how gracefully playback degrades — stalls,
//! degraded/frozen frames, retries and the energy spent riding out
//! faults. The `…+T+H` rows exercise the tiled multi-rate path, whose
//! per-tile retries degrade single tiles instead of freezing frames.
//!
//! Every run is a pure function of the seed: the link process, the loss
//! channel and the fault plan all draw from seeded deterministic
//! streams, so `json=PATH` output diffs bit-identically across runs and
//! machines. CI pins a golden file (`tests/golden/chaos_smoke.json`)
//! against exactly this invocation:
//!
//! ```text
//! cargo run --release -p evr-bench --bin chaos_run -- quick tiny seed=7 json=/tmp/chaos.json
//! cargo run --release -p evr-bench --bin chaos_run -- users=8 duration=12 seed=42
//! ```

use evr_bench::header;
use evr_core::experiment::{run_variant_resilient, ExperimentConfig};
use evr_core::report::chaos_markdown;
use evr_core::{AggregateReport, EvrSystem, UseCase, Variant};
use evr_faults::{
    BandwidthProfile, FaultEvent, FaultPlan, FaultSetup, GilbertElliott, LinkProcess,
    ServerFaultEvent, ServerFaultPlan,
};
use evr_sas::SasConfig;
use evr_video::library::VideoId;

struct ChaosArgs {
    users: u64,
    duration_s: f64,
    seed: u64,
    sas: SasConfig,
    json: Option<String>,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs { users: 59, duration_s: 60.0, seed: 7, sas: SasConfig::default(), json: None }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> ChaosArgs {
    let mut out = ChaosArgs::default();
    for arg in args {
        if arg == "quick" {
            out.users = 6;
            out.duration_s = 6.0;
        } else if arg == "tiny" {
            out.sas = SasConfig::tiny_for_tests();
        } else if let Some(v) = arg.strip_prefix("users=") {
            out.users = v.parse().expect("users=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("duration=") {
            out.duration_s = v.parse().expect("duration=S takes seconds");
        } else if let Some(v) = arg.strip_prefix("seed=") {
            out.seed = v.parse().expect("seed=N takes an integer");
        } else if let Some(v) = arg.strip_prefix("json=") {
            out.json = Some(v.to_string());
        } else {
            panic!(
                "unknown argument {arg:?}; expected `quick`, `tiny`, `users=N`, \
                 `duration=S`, `seed=N` or `json=PATH`"
            );
        }
    }
    out
}

/// The severity ladder. Each rung strictly adds impairments on top of
/// the previous one so the reported degradation is monotone by design.
fn ladder(seed: u64, duration_s: f64) -> Vec<(String, FaultSetup)> {
    let full = 300e6; // the paper's §8.2 clean operating point
    let mild_link = LinkProcess {
        profile: BandwidthProfile::constant(full),
        loss: GilbertElliott::bursty(0.05, 2.0, 0.2),
        rtt_s: 0.004,
    };
    let moderate_link = LinkProcess {
        profile: BandwidthProfile::step_drop(full, full / 8.0, 0.4 * duration_s),
        loss: GilbertElliott::bursty(0.15, 2.5, 0.4),
        rtt_s: 0.008,
    };
    let severe_link = LinkProcess {
        profile: BandwidthProfile::step_drop(full, full / 8.0, 0.4 * duration_s)
            .with_outage(0.55 * duration_s, 0.2 * duration_s),
        loss: GilbertElliott::bursty(0.3, 4.0, 0.6),
        rtt_s: 0.02,
    };
    let mild_plan = FaultPlan::none()
        .with(FaultEvent::LateSegment { segment: 1, delay_s: 0.05 })
        .with(FaultEvent::RequestDrop { segment: 3 });
    let moderate_plan = mild_plan.clone().with(FaultEvent::SegmentCorruption { segment: 2 });
    let severe_plan = moderate_plan
        .clone()
        .with(FaultEvent::ServerOutage { start_s: 0.1 * duration_s, duration_s: 0.1 * duration_s })
        .with(FaultEvent::RequestDrop { segment: 0 });
    // Server-side chaos on top of the severe rung: one shard dark, one
    // shard slow past the shed budget, and an eviction storm inflating
    // store misses — exercising the serving front's shed/breaker rungs.
    let server_plan = ServerFaultPlan::healthy()
        .with(ServerFaultEvent::ShardOutage {
            shard: 0,
            start_s: 0.15 * duration_s,
            duration_s: 0.3 * duration_s,
        })
        .with(ServerFaultEvent::ShardOutage {
            shard: 1,
            start_s: 0.15 * duration_s,
            duration_s: 0.3 * duration_s,
        })
        .with(ServerFaultEvent::SlowShard {
            shard: 0,
            latency_scale: 64.0,
            start_s: 0.5 * duration_s,
            duration_s: 0.3 * duration_s,
        })
        .with(ServerFaultEvent::StoreEvictionStorm {
            start_s: 0.55 * duration_s,
            duration_s: 0.2 * duration_s,
        });
    vec![
        ("clean".to_string(), FaultSetup::seeded(seed)),
        ("mild".to_string(), FaultSetup::seeded(seed).with_link(mild_link).with_plan(mild_plan)),
        (
            "moderate".to_string(),
            FaultSetup::seeded(seed).with_link(moderate_link).with_plan(moderate_plan),
        ),
        (
            "severe".to_string(),
            FaultSetup::seeded(seed).with_link(severe_link.clone()).with_plan(severe_plan.clone()),
        ),
        (
            "server".to_string(),
            FaultSetup::seeded(seed)
                .with_link(severe_link)
                .with_plan(severe_plan)
                .with_server(server_plan),
        ),
    ]
}

/// Serialises the sweep to a stable JSON document: fixed key order,
/// every float printed `{:.6}`, one rung per line. Byte-identical
/// across runs with the same arguments, which is what the CI golden
/// diff relies on.
fn sweep_json(
    rows: &[(String, AggregateReport)],
    seed: u64,
    users: u64,
    duration_s: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"seed\": {seed},\n  \"users\": {users},\n  \"duration_s\": {duration_s:.6},\n"
    ));
    out.push_str("  \"rungs\": [\n");
    for (i, (label, agg)) in rows.iter().enumerate() {
        let resilience: f64 = evr_energy::Component::ALL
            .iter()
            .map(|c| agg.ledger.get(*c, evr_energy::Activity::Resilience))
            .sum();
        out.push_str(&format!(
            "    {{\"severity\": \"{label}\", \"device_j\": {:.6}, \"resilience_j\": {:.6}, \
             \"stall_s\": {:.6}, \"rebuffer_s\": {:.6}, \"degraded_fraction\": {:.6}, \
             \"frozen_fraction\": {:.6}, \"retries\": {:.6}, \"timeouts\": {:.6}, \
             \"fps_drop\": {:.6}, \"bytes_received\": {:.6}, \"shed\": {:.6}, \
             \"front_unavailable\": {:.6}}}{}\n",
            agg.ledger.total(),
            resilience,
            agg.fault_stall_s,
            agg.rebuffer_time_s,
            agg.degraded_fraction,
            agg.frozen_fraction,
            agg.retries,
            agg.timeouts,
            agg.fps_drop,
            agg.bytes_received,
            agg.shed_segments,
            agg.front_unavailable_segments,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    header("chaos", "S+H online streaming under the fault-severity ladder");
    println!("video Rhino, {} users x {:.0} s, seed {}", args.users, args.duration_s, args.seed);

    let system = EvrSystem::build(VideoId::Rhino, args.sas, args.duration_s);
    let cfg = ExperimentConfig { users: args.users, threads: 0 };
    let mut rows: Vec<(String, AggregateReport)> = Vec::new();
    for (label, setup) in ladder(args.seed, args.duration_s) {
        for (variant, tag) in [(Variant::SPlusH, ""), (Variant::TPlusH, "+T+H")] {
            let agg =
                run_variant_resilient(&system, UseCase::OnlineStreaming, variant, &cfg, &setup);
            let row = format!("{label}{tag}");
            println!(
                "  {row:<12} stall {:.3} s, degraded {:.1}%, frozen {:.1}%, retries {:.1}",
                agg.fault_stall_s,
                100.0 * agg.degraded_fraction,
                100.0 * agg.frozen_fraction,
                agg.retries
            );
            rows.push((row, agg));
        }
    }

    println!();
    print!("{}", chaos_markdown(&rows));

    if let Some(path) = &args.json {
        let json = sweep_json(&rows, args.seed, args.users, args.duration_s);
        std::fs::write(path, &json).expect("write chaos JSON");
        println!("json: {path}");
    }
}
