//! End-to-end observability: a Baseline vs S+H pair through the real
//! pipeline with a live observer and timeline, checking that the
//! emitted metrics match the playback reports and that every exporter
//! produces well-formed output.

use evr_core::{EvrSystem, UseCase, Variant};
use evr_energy::Component;
use evr_obs::names;
use evr_sas::SasConfig;
use evr_video::library::VideoId;

fn observed_run(variant: Variant) -> (evr_obs::Observer, evr_client::session::PlaybackReport) {
    let timeline = evr_obs::Timeline::bounded(evr_obs::DEFAULT_TIMELINE_CAPACITY);
    let obs = evr_obs::Observer::enabled().with_timeline(timeline);
    let mut system = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
    system.instrument(&obs);
    let report = system.run_user_in(UseCase::OnlineStreaming, variant, 5);
    (obs, report)
}

#[test]
fn fov_counters_fire_only_on_sas_paths() {
    let (base_obs, base) = observed_run(Variant::Baseline);
    let (sh_obs, sh) = observed_run(Variant::SPlusH);

    // Baseline streams originals: the FOV checker never runs.
    assert_eq!(base_obs.counter(names::FOV_HITS).get(), 0);
    assert_eq!(base_obs.counter(names::FOV_MISSES).get(), 0);
    assert_eq!(base_obs.counter(names::SAS_FOV_REQUESTS).get(), 0);
    assert_eq!(base_obs.counter(names::FALLBACK_FRAMES).get(), base.frames_total);

    // S+H consults it every frame and mostly hits.
    assert!(sh_obs.counter(names::FOV_HITS).get() > 0, "S+H records FOV hits");
    assert_eq!(sh_obs.counter(names::FOV_HITS).get(), sh.fov_hits);
    assert_eq!(sh_obs.counter(names::FOV_MISSES).get(), sh.fov_misses);
    assert!(sh_obs.counter(names::SAS_FOV_REQUESTS).get() > 0, "S+H requests FOV videos");

    // Both replay the same trace length.
    assert_eq!(base_obs.counter(names::FRAMES).get(), base.frames_total);
    assert_eq!(sh_obs.counter(names::FRAMES).get(), sh.frames_total);
}

#[test]
fn energy_gauges_sum_to_ledger_totals() {
    for variant in [Variant::Baseline, Variant::SPlusH] {
        let (obs, report) = observed_run(variant);
        let mut gauge_sum = 0.0;
        for c in Component::ALL {
            let g = obs.gauge(&names::energy_gauge(&c.to_string())).get();
            let want = report.ledger.component_total(c);
            assert!((g - want).abs() < 1e-9, "{variant} {c}: gauge {g} vs ledger {want}");
            gauge_sum += g;
        }
        assert!(
            (gauge_sum - report.ledger.total()).abs() < 1e-9,
            "{variant}: summed gauges {gauge_sum} vs total {}",
            report.ledger.total()
        );
    }
}

#[test]
fn all_exporters_produce_well_formed_output() {
    let (obs, report) = observed_run(Variant::SPlusH);

    // Chrome trace: one complete event per timeline interval, each
    // attributed to the replayed user.
    let intervals = obs.timeline().events().len();
    assert!(intervals > 0);
    let trace = obs.timeline().chrome_trace_json();
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), intervals);
    assert_eq!(trace.matches("\"args\":{\"user\":5,").count(), intervals);

    // Prometheus exposition: typed, and the frame counter carries the
    // real frame count.
    let prom = obs.prometheus();
    assert!(prom.contains("# TYPE evr_frames_total counter"));
    assert!(prom.contains(&format!("evr_frames_total {}", report.frames_total)));
    assert!(prom.contains("# TYPE evr_frame_process_seconds histogram"));
    assert!(prom.contains("evr_frame_process_seconds_bucket{le=\"+Inf\"}"));

    // Summary table: every registered metric appears.
    let summary = obs.summary();
    for (name, _) in obs.metrics() {
        assert!(summary.contains(&name), "summary lists {name}");
    }
    assert!(summary.contains(&format!("trace: {intervals} events retained, 0 dropped")));

    // Report artifact: a single JSON object with all sections.
    let json = obs.report_json("e2e");
    assert!(json.starts_with('{') && json.ends_with("}\n"));
    for section in ["\"counters\":", "\"gauges\":", "\"histograms\":", "\"trace\":"] {
        assert!(json.contains(section), "report has {section}");
    }
    assert!(json.contains(&format!("\"events_recorded\":{intervals},\"events_dropped\":0")));
}

#[test]
fn fault_counters_are_zero_clean_and_live_under_an_outage() {
    // Clean resilient run: every fault metric stays at zero.
    let clean_obs = evr_obs::Observer::enabled();
    let mut system = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
    system.instrument(&clean_obs);
    let clean = system.run_user_resilient(
        UseCase::OnlineStreaming,
        Variant::SPlusH,
        5,
        &evr_faults::FaultSetup::seeded(3),
    );
    assert_eq!(clean.faults, Default::default());
    assert_eq!(clean_obs.counter(names::FAULT_RETRIES).get(), 0);
    assert_eq!(clean_obs.counter(names::FAULT_TIMEOUTS).get(), 0);
    assert_eq!(clean_obs.counter(names::DEGRADED_FRAMES).get(), 0);
    assert_eq!(clean_obs.counter(names::FROZEN_FRAMES).get(), 0);

    // A permanent server outage: the same counters fire and mirror the
    // report's fault summary.
    let fault_obs = evr_obs::Observer::enabled();
    system.instrument(&fault_obs);
    let setup = evr_faults::FaultSetup::seeded(3).with_plan(
        evr_faults::FaultPlan::none()
            .with(evr_faults::FaultEvent::ServerOutage { start_s: 0.0, duration_s: 1e6 }),
    );
    let faulted = system.run_user_resilient(UseCase::OnlineStreaming, Variant::SPlusH, 5, &setup);
    assert!(faulted.faults.timeouts > 0);
    assert_eq!(fault_obs.counter(names::FAULT_RETRIES).get(), faulted.faults.retries);
    assert_eq!(fault_obs.counter(names::FAULT_TIMEOUTS).get(), faulted.faults.timeouts);
    assert_eq!(fault_obs.counter(names::FROZEN_FRAMES).get(), faulted.faults.frozen_frames);
    assert!(
        (fault_obs.gauge(names::BACKOFF_SECONDS).get() - faulted.faults.backoff_time_s).abs()
            < 1e-9
    );

    // The exporters carry the fault metrics.
    let prom = fault_obs.prometheus();
    assert!(prom.contains("# TYPE evr_fault_timeouts_total counter"));
    assert!(prom.contains(&format!("evr_fault_timeouts_total {}", faulted.faults.timeouts)));
    assert!(prom.contains("# TYPE evr_fault_stall_seconds histogram"));
    let json = fault_obs.report_json("chaos");
    assert!(json.contains("\"evr_fault_retries_total\""));
    assert!(json.contains("\"evr_frozen_frames_total\""));
}

#[test]
fn smoke_workload_drops_no_timeline_events() {
    // The timeline ring is bounded; the smoke workload must fit
    // comfortably inside it. `Observer::metrics()` mirrors the ring's
    // drop count into the registry, so the counter is checkable (and
    // exported) like any other metric.
    let (obs, _) = observed_run(Variant::SPlusH);
    let _ = obs.metrics(); // snapshot mirrors ring drops into counters
    assert_eq!(obs.counter(names::OBS_TIMELINE_DROPPED).get(), 0, "timeline ring dropped");
    assert_eq!(obs.timeline().dropped(), 0);
    let prom = obs.prometheus();
    assert!(prom.contains("evr_obs_timeline_events_dropped_total 0"), "exported as zero:\n{prom}");
}

#[test]
fn timeline_attributes_stages_and_correlates_sas_requests() {
    let timeline = evr_obs::Timeline::bounded(evr_obs::DEFAULT_TIMELINE_CAPACITY);
    let obs = evr_obs::Observer::enabled().with_timeline(timeline.clone());
    let mut system = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
    system.instrument(&obs);
    let _ = system.run_user_in(UseCase::OnlineStreaming, Variant::SPlusH, 5);
    // The tiled variants play through the same loop, clean and faulted.
    let drop = evr_faults::FaultSetup::seeded(7).with_plan(
        evr_faults::FaultPlan::none().with(evr_faults::FaultEvent::RequestDrop { segment: 1 }),
    );
    for variant in Variant::TILED {
        let _ = system.run_user_in(UseCase::OnlineStreaming, variant, 5);
        let _ = system.run_user_resilient(UseCase::OnlineStreaming, variant, 5, &drop);
    }

    let events = timeline.events();
    let runs = 1 + 2 * Variant::TILED.len();
    let segments = system.server().catalog().segment_count() as usize;
    for stage in ["plan", "fetch", "render", "account"] {
        let n = events.iter().filter(|e| e.stage == stage).count();
        assert_eq!(n, runs * segments, "stage {stage} recorded once per segment and run");
    }
    for e in &events {
        assert!(e.end_ns >= e.start_ns, "interval is well-formed: {e:?}");
        assert_eq!(e.ctx.user, 5, "interval attributed to the user: {e:?}");
    }

    // Every server-side fetch carries a request id that also appears on
    // exactly one client-side fetch interval for the same segment —
    // that is the client/server correlation the request ids exist for.
    let sas: Vec<_> =
        events.iter().filter(|e| e.stage == evr_obs::names::TIMELINE_SAS_FETCH).collect();
    assert!(!sas.is_empty(), "S+H run reaches the SAS server");
    for s in &sas {
        assert_ne!(s.ctx.request, 0, "server fetch has a request id");
        let matching =
            events.iter().filter(|e| e.stage == "fetch" && e.ctx.request == s.ctx.request).count();
        assert_eq!(matching, 1, "request {} maps to one client fetch", s.ctx.request);
    }

    // The exemplar table names the slowest intervals per stage.
    let table = timeline.exemplar_table(3);
    for stage in ["fetch", "render", evr_obs::names::TIMELINE_SAS_FETCH] {
        assert!(table.contains(stage), "exemplar table lists {stage}:\n{table}");
    }

    // And the Chrome trace export is well-formed enough for Perfetto:
    // one complete event per interval with microsecond timestamps.
    let trace = timeline.chrome_trace_json();
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(
        trace.ends_with("]}\n") || trace.ends_with("]}"),
        "trace closes: …{}",
        &trace[trace.len().saturating_sub(8)..]
    );
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), events.len());
    assert!(trace.contains("\"name\":\"render\""));
}

#[test]
fn fleet_metrics_are_consistent_across_worker_counts() {
    use evr_core::FleetRunner;
    let users = 8u64;
    let sys = EvrSystem::build(VideoId::Rhino, SasConfig::tiny_for_tests(), 1.0);
    let session = sys.session_for(UseCase::OnlineStreaming, Variant::SPlusH);
    let serial = FleetRunner::new(1).run(users, |u| sys.run_with(&session, u));
    for workers in [1usize, 2, 8] {
        let obs = evr_obs::Observer::enabled();
        let runner = FleetRunner::new(workers).with_observer(&obs);
        let reports = runner.run(users, |u| sys.run_with(&session, u));
        assert_eq!(reports, serial, "{workers} workers: results are worker-count invariant");

        // Fleet totals are invariant: the user count always lands in
        // the counter, the wall-clock in the gauge.
        assert_eq!(obs.counter(names::FLEET_USERS).get(), users, "{workers} workers");
        assert!(obs.gauge(names::FLEET_WALL_SECONDS).get() > 0.0, "{workers} workers");

        // Per-worker lanes: one pair of metrics per active lane, lane
        // user counts summing to the fleet total, no phantom lanes.
        let lanes = workers.min(users as usize);
        let mut lane_users = 0;
        for w in 0..lanes as u32 {
            lane_users += obs.counter(&names::fleet_worker_users(w)).get();
            assert!(
                obs.gauge(&names::fleet_worker_busy_seconds(w)).get() > 0.0,
                "{workers} workers: lane {w} reports busy time"
            );
        }
        assert_eq!(lane_users, users, "{workers} workers: lanes cover every user");
        let registered: Vec<String> = obs.metrics().into_iter().map(|(name, _)| name).collect();
        assert!(
            !registered.contains(&names::fleet_worker_users(lanes as u32)),
            "{workers} workers: no lane beyond the worker count"
        );
    }
}

#[test]
fn frame_histogram_times_every_frame() {
    // `evr_frame_process_seconds` is the per-frame time record: every
    // played frame lands in it, whole-frame or tiled, and every FOV
    // check lands in the hit/miss counters.
    for variant in [Variant::SPlusH, Variant::T, Variant::TPlusH] {
        let (obs, report) = observed_run(variant);
        let frames = obs.histogram(names::FRAME_SECONDS, &evr_obs::LATENCY_BOUNDS_S).snapshot();
        assert_eq!(frames.count, report.frames_total, "{variant}");
        let checks = obs.counter(names::FOV_HITS).get() + obs.counter(names::FOV_MISSES).get();
        assert_eq!(checks, report.fov_hits + report.fov_misses, "{variant}");
    }
}
