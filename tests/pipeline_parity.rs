//! Parity suite pinning the staged segment pipeline against the
//! pre-refactor playback loops.
//!
//! The golden file `tests/golden/pipeline_parity.txt` was generated by
//! the original `run` / `run_resilient` implementations (hand-maintained
//! loops in `session.rs`) immediately before they were unified into
//! `crates/client/src/pipeline.rs`. Every fingerprint encodes the full
//! [`PlaybackReport`] — every ledger cell, counter and stall second — as
//! exact `f64` bit patterns, so a single ULP of drift anywhere in the
//! pipeline fails the diff. The `trace/*` lines pin the raw bits of the
//! head traces every report starts from; they were generated by the
//! per-user behaviour model before trace generation moved onto shared
//! object tracks (DESIGN.md §17). The `tiled-rate/*` lines pin the
//! per-tile multi-rate `T`/`T+H` runs (plus the front-gate shed and
//! unavailable counts); they were generated by the separate tiled loop
//! immediately before it was folded into the segment pipeline. The
//! four `tiled/*` lines of the two-layer tiled baseline were retired
//! with that baseline, which the `T` variant supersedes (DESIGN.md §15).
//!
//! Regenerate (only when a *deliberate* behaviour change is made) with:
//!
//! ```text
//! EVR_REGEN_GOLDEN=1 cargo test -p evr-core --test pipeline_parity
//! ```

use std::fmt::Write as _;

use evr_client::session::PlaybackReport;
use evr_core::{EvrSystem, FleetRunner, UseCase, Variant};
use evr_energy::{Activity, Component};
use evr_faults::{
    BandwidthProfile, FaultEvent, FaultPlan, FaultSetup, GilbertElliott, LinkProcess,
    ServerFaultEvent, ServerFaultPlan,
};
use evr_sas::SasConfig;
use evr_trace::behavior::{generate_user_trace, params_for};
use evr_trace::HeadTrace;
use evr_video::library::{scene_for, VideoId};

const GOLDEN_PATH: &str = "../../tests/golden/pipeline_parity.txt";

/// Exact, endian-stable text encoding of a report: u64 counters in
/// decimal, every f64 as its IEEE-754 bit pattern in hex.
fn fingerprint(label: &str, r: &PlaybackReport) -> String {
    let mut s = String::new();
    let b = |x: f64| format!("{:016x}", x.to_bits());
    write!(
        s,
        "{label}|ft={} hit={} miss={} fb={} re={} rx={}|rt={} dur={}",
        r.frames_total,
        r.fov_hits,
        r.fov_misses,
        r.fallback_frames,
        r.rebuffer_events,
        r.bytes_received,
        b(r.rebuffer_time_s),
        b(r.duration_s),
    )
    .unwrap();
    let f = &r.faults;
    write!(
        s,
        "|faults={},{},{},{},{},{},{},{}",
        f.retries,
        f.timeouts,
        f.degraded_segments,
        f.degraded_frames,
        f.frozen_frames,
        f.corrupt_segments,
        b(f.backoff_time_s),
        b(f.stall_time_s),
    )
    .unwrap();
    write!(s, "|ldur={}", b(r.ledger.duration())).unwrap();
    for c in Component::ALL {
        for a in Activity::ALL {
            let j = r.ledger.get(c, a);
            if j != 0.0 {
                write!(s, "|{c}:{a}={}", b(j)).unwrap();
            }
        }
    }
    s
}

/// FNV-1a over the raw `f64` bits (t, yaw, pitch, roll) of every sample
/// of every trace, in order, next to the trace and sample counts.
fn trace_fingerprint(label: &str, traces: impl IntoIterator<Item = HeadTrace>) -> String {
    let (mut count, mut samples) = (0usize, 0usize);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for trace in traces {
        count += 1;
        samples += trace.len();
        for s in trace.samples() {
            for x in [s.t, s.pose.yaw.0, s.pose.pitch.0, s.pose.roll.0] {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    format!("{label}|traces={count} samples={samples} fnv={h:016x}")
}

/// The shared fixture: same video/config/duration as
/// `tests/faults_properties.rs`, so the seeded fault plans exercise the
/// same segment geometry.
fn system() -> EvrSystem {
    EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 2.0)
}

/// The seeded fault setups reused from the shapes property-tested in
/// `tests/faults_properties.rs`: a bursty lossy link under an outage
/// plan, a dead link, and a scheduled corruption + late delivery.
fn fault_setups() -> Vec<(&'static str, FaultSetup)> {
    let bursty = |entry: f64, burst: f64, loss: f64, bw: f64| LinkProcess {
        profile: BandwidthProfile::constant(bw),
        loss: GilbertElliott::bursty(entry, burst, loss),
        rtt_s: 0.005,
    };
    vec![
        (
            "bursty_outage",
            FaultSetup::seeded(21).with_link(bursty(0.25, 3.0, 0.6, 25e6)).with_plan(
                FaultPlan::none()
                    .with(FaultEvent::ServerOutage { start_s: 0.4, duration_s: 0.7 })
                    .with(FaultEvent::RequestDrop { segment: 0 }),
            ),
        ),
        (
            "dead_link",
            FaultSetup::seeded(7).with_link(LinkProcess {
                profile: BandwidthProfile::constant(0.0),
                loss: GilbertElliott::clean(),
                rtt_s: 0.002,
            }),
        ),
        (
            "corrupt_late",
            FaultSetup::seeded(3).with_plan(
                FaultPlan::none()
                    .with(FaultEvent::SegmentCorruption { segment: 0 })
                    .with(FaultEvent::LateSegment { segment: 1, delay_s: 0.4 }),
            ),
        ),
    ]
}

/// The mixed server-side plan of `tests/front_overload.rs`: two shards
/// dark, one slow, plus an eviction storm. Over users 0–1 of the
/// fixture it sheds some tiled segments and refuses others, so both
/// non-`Serve` arms of the front gate are pinned.
fn mixed_plan() -> ServerFaultPlan {
    ServerFaultPlan::healthy()
        .with(ServerFaultEvent::ShardOutage { shard: 0, start_s: 0.0, duration_s: 1.0 })
        .with(ServerFaultEvent::ShardOutage { shard: 1, start_s: 0.0, duration_s: 1.0 })
        .with(ServerFaultEvent::SlowShard {
            shard: 2,
            latency_scale: 64.0,
            start_s: 0.5,
            duration_s: 1.5,
        })
        .with(ServerFaultEvent::StoreEvictionStorm { start_s: 0.2, duration_s: 1.0 })
}

/// [`fingerprint`] plus the front-gate counters (shed, unavailable),
/// which the base encoding predates.
fn fingerprint_front(label: &str, r: &PlaybackReport) -> String {
    let f = &r.faults;
    format!("{}|front={},{}", fingerprint(label, r), f.shed_segments, f.front_unavailable_segments)
}

/// Every fingerprint the suite pins, in a fixed order.
fn collect_fingerprints() -> Vec<String> {
    let sys = system();
    let mut out = Vec::new();

    // Clean runs: all three use-cases, every variant, two users.
    let variants = [
        Variant::Baseline,
        Variant::S,
        Variant::H,
        Variant::SPlusH,
        Variant::PerfectHmp,
        Variant::IdealHmp,
    ];
    for uc in [UseCase::OnlineStreaming, UseCase::LiveStreaming, UseCase::OfflinePlayback] {
        for v in variants {
            for user in 0..2u64 {
                let r = sys.run_user_in(uc, v, user);
                out.push(fingerprint(&format!("clean/{uc}/{v}/u{user}"), &r));
            }
        }
    }

    // Faulted runs: the seeded setups over the SAS and baseline paths.
    for (name, setup) in fault_setups() {
        for v in [Variant::S, Variant::SPlusH] {
            for user in 0..2u64 {
                let r = sys.run_user_resilient(UseCase::OnlineStreaming, v, user, &setup);
                out.push(fingerprint(&format!("fault/{name}/{v}/u{user}"), &r));
            }
        }
    }

    // Head traces: 59 users of every video, 20 s at 30 Hz, and the
    // fixture system's own `user_trace`.
    for v in VideoId::ALL {
        let (scene, params) = (scene_for(v), params_for(v));
        let traces = (0..59u64)
            .map(|u| generate_user_trace(&scene, &params, u ^ ((v as u64) << 32), 20.0, 30.0));
        out.push(trace_fingerprint(&format!("trace/{v:?}"), traces));
    }
    out.push(trace_fingerprint("trace/system", (0..120u64).map(|u| sys.user_trace(u))));

    // Per-tile multi-rate streaming (`T`, `T+H`): clean in every
    // use-case, then under the seeded fault setups, the mixed
    // server-side plan and a recovering outage.
    for uc in [UseCase::OnlineStreaming, UseCase::LiveStreaming, UseCase::OfflinePlayback] {
        for v in Variant::TILED {
            for user in 0..2u64 {
                let r = sys.run_user_in(uc, v, user);
                out.push(fingerprint_front(&format!("tiled-rate/clean/{uc}/{v}/u{user}"), &r));
            }
        }
    }
    let mut setups = fault_setups();
    setups.push(("server_mixed", FaultSetup::seeded(3).with_server(mixed_plan())));
    // An outage that ends while the first tile is still retrying its
    // allocated rung: the coarsest-rung retry delivers, so that tile
    // (and only its segment) degrades.
    let outage = FaultPlan::none().with(FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1.2 });
    setups.push(("outage_recovers", FaultSetup::seeded(5).with_plan(outage)));
    for (name, setup) in setups {
        for v in Variant::TILED {
            for user in 0..2u64 {
                let r = sys.run_user_resilient(UseCase::OnlineStreaming, v, user, &setup);
                out.push(fingerprint_front(&format!("tiled-rate/fault/{name}/{v}/u{user}"), &r));
            }
        }
    }

    out
}

/// The fleet guarantee the DESIGN.md §12 argument promises: for worker
/// counts 1, 2 and 8, both the per-user report vector and the merged
/// fleet report are *bit*-identical to a plain serial loop (compared
/// via the exact `f64::to_bits` fingerprints, not just `==`).
#[test]
fn fleet_runs_are_bit_identical_to_serial_for_workers_1_2_8() {
    let sys = system();
    let users = 5u64;
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
    let serial: Vec<PlaybackReport> = (0..users).map(|u| sys.run_with(&session, u)).collect();
    let mut serial_merged = PlaybackReport::empty();
    for r in &serial {
        serial_merged.merge(r);
    }
    let print = |rs: &[PlaybackReport]| -> Vec<String> {
        rs.iter().enumerate().map(|(u, r)| fingerprint(&format!("u{u}"), r)).collect()
    };
    for workers in [1usize, 2, 8] {
        let fleet = FleetRunner::new(workers).run(users, |u| sys.run_with(&session, u));
        assert_eq!(print(&serial), print(&fleet), "{workers} workers");
        let merged = FleetRunner::new(workers).run_merged(users, |u| sys.run_with(&session, u));
        assert_eq!(
            fingerprint("merged", &serial_merged),
            fingerprint("merged", &merged),
            "{workers} workers (merged)"
        );
    }
}

/// Same guarantee under injected faults: each user's fault stream is
/// independently seeded, so the faulted sweep is worker-count-invariant
/// too.
#[test]
fn faulted_fleet_runs_are_bit_identical_to_serial() {
    let sys = system();
    let users = 4u64;
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::S);
    for (name, setup) in fault_setups() {
        let serial: Vec<PlaybackReport> =
            (0..users).map(|u| sys.run_with_resilient(&session, u, &setup)).collect();
        for workers in [1usize, 2, 8] {
            let fleet = FleetRunner::new(workers)
                .run(users, |u| sys.run_with_resilient(&session, u, &setup));
            for (u, (s, f)) in serial.iter().zip(&fleet).enumerate() {
                assert_eq!(
                    fingerprint(&format!("{name}/u{u}"), s),
                    fingerprint(&format!("{name}/u{u}"), f),
                    "{name}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn reports_match_pre_refactor_golden() {
    let got = collect_fingerprints().join("\n") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("EVR_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden exists; regen with EVR_REGEN_GOLDEN=1");
    if got != want {
        let got_lines: Vec<_> = got.lines().collect();
        let want_lines: Vec<_> = want.lines().collect();
        for (g, w) in got_lines.iter().zip(&want_lines) {
            assert_eq!(g, w, "report diverged from the pre-refactor implementation");
        }
        assert_eq!(got_lines.len(), want_lines.len(), "case count changed");
    }
}
