//! # evr-obs — zero-dependency tracing + metrics for the EVR pipeline
//!
//! This crate is the observability layer threaded through the playback
//! pipeline: a lock-cheap metrics registry (counters, gauges,
//! fixed-bucket histograms), an opt-in per-worker [`Timeline`] of stage
//! intervals in a bounded ring, and the exporters over them (Prometheus
//! text exposition, a human-readable summary table, a JSON run report,
//! and the timeline's Chrome trace and exemplar table).
//!
//! The entry point is [`Observer`], a cheaply clonable handle that is
//! either *enabled* (backed by a shared registry) or a *no-op*
//! (`Observer::noop()`, the default). Every recording method on a no-op
//! observer — and on any handle obtained from one — is a branch on an
//! `Option` that is `None`, so uninstrumented runs pay effectively
//! nothing. Instrumented code takes an `Observer` (or a handle
//! pre-resolved from one) and never needs to know which kind it holds.
//!
//! ```
//! use evr_obs::{Observer, Timeline, TraceCtx};
//!
//! let obs = Observer::enabled().with_timeline(Timeline::bounded(64));
//! let frames = obs.counter("evr_frames_total");
//! let latency = obs.histogram("evr_frame_seconds", &[1e-4, 1e-3, 1e-2]);
//! let tl = obs.timeline();
//! for frame in 0..3 {
//!     let t0 = tl.now_ns();
//!     frames.inc();
//!     latency.observe(2e-4);
//!     tl.record("frame", TraceCtx::anonymous().with_segment(frame), t0, tl.now_ns());
//! }
//! assert_eq!(frames.get(), 3);
//! assert!(obs.prometheus().contains("evr_frames_total 3"));
//! assert_eq!(tl.events().len(), 3); // one interval per frame
//! ```

mod export;
mod metrics;
pub mod timeline;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot};
pub use timeline::{Timeline, TimelineEvent, TraceCtx, DEFAULT_TIMELINE_CAPACITY};

use std::sync::Arc;

/// Default latency bucket bounds in seconds (1 µs .. 100 ms), for
/// frame-scale processing-time histograms.
pub const LATENCY_BOUNDS_S: [f64; 15] =
    [1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1];

/// Canonical metric and timeline stage names, so the crates
/// instrumenting the pipeline and the tests/exporters reading it agree
/// on spelling.
pub mod names {
    // Playback session (evr-client).
    pub const FRAMES: &str = "evr_frames_total";
    pub const FOV_HITS: &str = "evr_fov_hits_total";
    pub const FOV_MISSES: &str = "evr_fov_misses_total";
    pub const FALLBACK_FRAMES: &str = "evr_fallback_frames_total";
    pub const REBUFFER_EVENTS: &str = "evr_rebuffer_events_total";
    pub const REBUFFER_SECONDS: &str = "evr_rebuffer_seconds_total";
    pub const SEGMENTS: &str = "evr_segments_total";
    pub const FETCH_BYTES: &str = "evr_segment_fetch_bytes_total";
    pub const FRAME_SECONDS: &str = "evr_frame_process_seconds";
    pub const PT_GPU_FRAMES: &str = "evr_pt_gpu_frames_total";
    pub const PT_PTE_FRAMES: &str = "evr_pt_pte_frames_total";

    // Fault injection / resilience (evr-client + evr-faults).
    pub const FAULT_RETRIES: &str = "evr_fault_retries_total";
    pub const FAULT_TIMEOUTS: &str = "evr_fault_timeouts_total";
    pub const DEGRADED_FRAMES: &str = "evr_degraded_frames_total";
    pub const FROZEN_FRAMES: &str = "evr_frozen_frames_total";
    pub const BACKOFF_SECONDS: &str = "evr_fault_backoff_seconds_total";
    pub const FAULT_STALL_SECONDS: &str = "evr_fault_stall_seconds";

    // ABR (evr-client).
    pub const ABR_SWITCHES: &str = "evr_abr_ladder_switches_total";
    pub const ABR_STALLS: &str = "evr_abr_stalls_total";

    // SAS server (evr-sas).
    pub const SAS_FOV_REQUESTS: &str = "evr_sas_fov_requests_total";
    /// Original-segment requests to the server. Reads 0: clients read
    /// originals straight from the catalog, so no server fetch counts
    /// here; `perfbench` still adds it into `server.calls`.
    pub const SAS_ORIGINAL_REQUESTS: &str = "evr_sas_original_requests_total";
    pub const SAS_NOT_FOUND: &str = "evr_sas_not_found_total";
    pub const SAS_FOV_BYTES: &str = "evr_sas_fov_bytes_total";
    pub const SAS_STORE_SEGMENTS: &str = "evr_sas_store_segments";

    // Shared FOV pre-render store (evr-sas). Hits/misses/evictions are
    // cumulative store counters mirrored as gauges (the store keeps the
    // source of truth so every holder of a clone reports one number).
    pub const SAS_PRERENDER_HITS: &str = "evr_sas_prerender_hits";
    pub const SAS_PRERENDER_MISSES: &str = "evr_sas_prerender_misses";
    pub const SAS_PRERENDER_EVICTIONS: &str = "evr_sas_prerender_evictions";
    pub const SAS_PRERENDER_RESIDENT_BYTES: &str = "evr_sas_prerender_resident_bytes";
    pub const SAS_PRERENDER_ENTRIES: &str = "evr_sas_prerender_entries";
    pub const SAS_PRERENDER_COALESCED: &str = "evr_sas_prerender_coalesced_total";
    pub const SAS_PRERENDER_RECONSTRUCTS: &str = "evr_sas_prerender_reconstructs_total";
    pub const SAS_PRERENDER_DELTA_ENTRIES: &str = "evr_sas_prerender_delta_entries";

    // Sharded serving front (evr-sas front.rs).
    pub const SAS_FRONT_BREAKER_TRIPS: &str = "evr_sas_front_breaker_trips_total";
    pub const SAS_FRONT_PEAK_QUEUE_DEPTH: &str = "evr_sas_front_peak_queue_depth";

    // Parallel segment ingest (evr-sas).
    pub const INGEST_SEGMENTS: &str = "evr_ingest_segments_total";
    pub const INGEST_DEGRADED_SEGMENTS: &str = "evr_ingest_degraded_segments_total";
    pub const INGEST_WORKERS: &str = "evr_ingest_workers";
    pub const INGEST_WALL_SECONDS: &str = "evr_ingest_wall_seconds";

    // PTE accelerator (evr-pte).
    pub const PTE_FRAMES: &str = "evr_pte_frames_total";
    pub const PTE_ACTIVE_CYCLES: &str = "evr_pte_active_cycles_total";
    pub const PTE_STALL_CYCLES: &str = "evr_pte_stall_cycles_total";
    pub const PTE_PMEM_HITS: &str = "evr_pte_pmem_hits_total";
    pub const PTE_PMEM_MISSES: &str = "evr_pte_pmem_misses_total";
    pub const PTE_DRAM_READ_BYTES: &str = "evr_pte_dram_read_bytes_total";
    pub const PTE_DRAM_WRITE_BYTES: &str = "evr_pte_dram_write_bytes_total";

    // PT fast path (evr-projection sampling-map LUT, via evr-pte).
    pub const PT_LUT_HITS: &str = "evr_pt_lut_hits_total";
    pub const PT_LUT_MISSES: &str = "evr_pt_lut_misses_total";
    pub const PT_RENDER_SECONDS: &str = "evr_pt_render_seconds";

    // Fleet runner (evr-core).
    pub const FLEET_USERS: &str = "evr_fleet_users_total";
    pub const FLEET_WALL_SECONDS: &str = "evr_fleet_wall_seconds";

    // Per-worker fleet lanes, named `evr_fleet_worker_users_total_<w>`
    // and `evr_fleet_worker_busy_seconds_<w>` via the helpers below.
    pub const FLEET_WORKER_USERS_PREFIX: &str = "evr_fleet_worker_users_total_";
    pub const FLEET_WORKER_BUSY_PREFIX: &str = "evr_fleet_worker_busy_seconds_";

    /// Counter name for one fleet worker's completed-user count.
    pub fn fleet_worker_users(worker: u32) -> String {
        format!("{FLEET_WORKER_USERS_PREFIX}{worker}")
    }

    /// Gauge name for one fleet worker's busy (non-idle) seconds.
    pub fn fleet_worker_busy_seconds(worker: u32) -> String {
        format!("{FLEET_WORKER_BUSY_PREFIX}{worker}")
    }

    // Observability self-monitoring: intervals lost to the timeline's
    // bounded ring. Mirrored into the registry at snapshot time so every
    // exporter reports whether the trace is complete.
    pub const OBS_TIMELINE_DROPPED: &str = "evr_obs_timeline_events_dropped_total";

    // Timeline stage names (crate::timeline). The pipeline stages reuse
    // the same labels as their `evr_pipeline_stage_seconds_*` histograms;
    // the client's fetch stage records `sas_fetch_fov` around each FOV
    // fetch it sends the server.
    pub const TIMELINE_USER: &str = "user";
    pub const TIMELINE_SAS_FETCH: &str = "sas_fetch_fov";
    pub const TIMELINE_INGEST_SEGMENT: &str = "ingest_segment";

    // Staged segment pipeline (evr-client): one wall-clock histogram per
    // stage, named `evr_pipeline_stage_seconds_<stage>` via
    // [`pipeline_stage_seconds`].
    pub const PIPELINE_STAGE_SECONDS_PREFIX: &str = "evr_pipeline_stage_seconds_";

    /// Histogram name for one pipeline stage label.
    pub fn pipeline_stage_seconds(stage: &str) -> String {
        let mut name = String::with_capacity(PIPELINE_STAGE_SECONDS_PREFIX.len() + stage.len());
        name.push_str(PIPELINE_STAGE_SECONDS_PREFIX);
        name.push_str(stage);
        name
    }

    // Energy ledger (evr-energy): one gauge per component, named
    // `evr_energy_joules_<component>` via [`energy_gauge`].
    pub const ENERGY_JOULES_PREFIX: &str = "evr_energy_joules_";

    /// Gauge name for one energy component label (lowercased).
    pub fn energy_gauge(component: &str) -> String {
        let mut name = String::with_capacity(ENERGY_JOULES_PREFIX.len() + component.len());
        name.push_str(ENERGY_JOULES_PREFIX);
        name.extend(component.chars().map(|c| c.to_ascii_lowercase()));
        name
    }
}

/// Handle to the observability layer: clonable, shareable across
/// threads, and a no-op by default.
///
/// See the crate docs for usage; construction goes through
/// [`Observer::enabled`] or [`Observer::noop`].
#[derive(Debug, Clone, Default)]
pub struct Observer {
    registry: Option<Arc<metrics::Registry>>,
    /// The per-worker timeline profiler, no-op unless attached with
    /// [`Observer::with_timeline`]. Lives beside the registry so the
    /// handle rides along wherever the observer is threaded.
    timeline: Timeline,
}

impl Observer {
    /// An observer that records nothing and costs (almost) nothing.
    pub fn noop() -> Self {
        Observer { registry: None, timeline: Timeline::noop() }
    }

    /// An enabled observer: a fresh metrics registry, no timeline.
    pub fn enabled() -> Self {
        Observer { registry: Some(Arc::default()), timeline: Timeline::noop() }
    }

    /// This observer with `timeline` attached; subsequent clones share
    /// it. The timeline is opt-in (profiling runs, benches) so plain
    /// instrumented runs pay nothing for it.
    #[must_use]
    pub fn with_timeline(mut self, timeline: Timeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// The attached per-worker timeline (no-op unless one was attached
    /// via [`Observer::with_timeline`]).
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves (registering on first use) the counter named `name`.
    /// Detached (no-op) when the observer is a no-op.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.registry.as_ref().map(|r| r.counter(name)))
    }

    /// Resolves (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.registry.as_ref().map(|r| r.gauge(name)))
    }

    /// Resolves (registering on first use) the histogram named `name`
    /// with ascending bucket `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(self.registry.as_ref().map(|r| r.histogram(name, bounds)))
    }

    /// Name-sorted snapshot of every registered metric (empty for a
    /// no-op).
    ///
    /// When a timeline is attached, its ring losses are mirrored into
    /// the registry here ([`names::OBS_TIMELINE_DROPPED`]), so every
    /// exporter reports whether the trace window is complete instead of
    /// dropping intervals silently.
    pub fn metrics(&self) -> Vec<(String, MetricSnapshot)> {
        self.registry.as_ref().map_or_else(Vec::new, |r| {
            if self.timeline.is_enabled() {
                let c = r.counter(names::OBS_TIMELINE_DROPPED);
                let (dropped, cur) = (self.timeline.dropped(), c.get());
                if dropped > cur {
                    c.add(dropped - cur);
                }
            }
            r.snapshot()
        })
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.metrics())
    }

    /// Human-readable end-of-run summary table; its `trace:` line
    /// counts the attached timeline's retained and dropped intervals.
    pub fn summary(&self) -> String {
        export::summary(&self.metrics(), self.timeline.retained(), self.timeline.dropped())
    }

    /// Machine-readable run report as a single JSON object; its `trace`
    /// section counts the attached timeline's intervals.
    pub fn report_json(&self, label: &str) -> String {
        export::report_json(
            label,
            &self.metrics(),
            self.timeline.retained(),
            self.timeline.dropped(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_records_nothing() {
        let obs = Observer::noop();
        let c = obs.counter("c");
        c.add(10);
        obs.gauge("g").set(1.0);
        obs.histogram("h", &[1.0]).observe(0.5);
        obs.timeline().record("s", TraceCtx::anonymous(), 0, 1);
        assert_eq!(c.get(), 0);
        assert!(obs.metrics().is_empty());
        assert!(obs.timeline().events().is_empty());
        assert!(!obs.is_enabled());
        assert!(obs.prometheus().is_empty());
    }

    #[test]
    fn default_is_noop() {
        assert!(!Observer::default().is_enabled());
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let obs = Observer::enabled();
        let c = obs.counter("sat");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_set_and_add() {
        let obs = Observer::enabled();
        let g = obs.gauge("g");
        g.set(1.5);
        g.add(2.25);
        g.add(-0.75);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn histogram_bucket_boundaries_underflow_and_overflow() {
        let obs = Observer::enabled();
        let h = obs.histogram("h", &[1.0, 2.0, 4.0]);
        // Below every bound -> first bucket (Prometheus le semantics).
        h.observe(-7.0);
        h.observe(0.5);
        // Exactly on a bound -> that bound's bucket.
        h.observe(1.0);
        h.observe(2.0);
        // Interior.
        h.observe(3.0);
        // Above every bound -> overflow (+Inf) bucket.
        h.observe(4.0001);
        h.observe(1e12);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![3, 1, 1, 2]);
        assert_eq!(snap.count, 7);
        let expected_sum = -7.0 + 0.5 + 1.0 + 2.0 + 3.0 + 4.0001 + 1e12;
        assert!((snap.sum - expected_sum).abs() < 1e-6);
    }

    #[test]
    fn histogram_quantiles_report_bucket_bounds() {
        let obs = Observer::enabled();
        let h = obs.histogram("q", &[1.0, 2.0, 4.0]);
        for _ in 0..98 {
            h.observe(0.5); // bucket le=1
        }
        h.observe(3.0); // bucket le=4
        h.observe(100.0); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 1.0);
        assert_eq!(snap.quantile(0.99), 4.0);
        // Overflow quantile is clamped to the last finite bound.
        assert_eq!(snap.quantile(1.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_collisions() {
        let obs = Observer::enabled();
        obs.counter("same_name");
        obs.gauge("same_name");
    }

    #[test]
    fn registry_dedups_by_name() {
        let obs = Observer::enabled();
        let a = obs.counter("shared");
        let b = obs.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(obs.metrics(), vec![("shared".to_string(), MetricSnapshot::Counter(2))]);
    }

    #[test]
    fn snapshot_mirrors_ring_drops_as_counters() {
        // No timeline attached: its drop counter is not registered.
        let obs = Observer::enabled();
        assert!(obs.metrics().iter().all(|(n, _)| n != names::OBS_TIMELINE_DROPPED));

        let timed = Observer::enabled().with_timeline(Timeline::bounded(2));
        for _ in 0..7 {
            timed.timeline().record("s", TraceCtx::anonymous(), 0, 1);
        }
        let dropped = timed.counter(names::OBS_TIMELINE_DROPPED);
        assert_eq!(dropped.get(), 0, "not yet snapshotted");
        let metrics = timed.metrics();
        assert!(metrics
            .iter()
            .any(|(n, s)| n == names::OBS_TIMELINE_DROPPED && *s == MetricSnapshot::Counter(5)));
        // Repeated snapshots don't double-count.
        let _ = timed.metrics();
        assert_eq!(dropped.get(), 5);
        assert!(timed.prometheus().contains("evr_obs_timeline_events_dropped_total 5"));
    }

    #[test]
    fn timeline_is_noop_unless_attached_and_clones_share_it() {
        let obs = Observer::enabled();
        assert!(!obs.timeline().is_enabled());
        let obs = obs.with_timeline(Timeline::bounded(8));
        let clone = obs.clone();
        clone.timeline().record("s", TraceCtx::for_user(1), 0, 10);
        assert_eq!(obs.timeline().events().len(), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let obs = Observer::enabled();
        obs.counter("c_total").add(3);
        obs.gauge("g").set(2.5);
        obs.histogram("h", &[1.0, 2.0]).observe(1.5);
        let text = obs.prometheus();
        assert!(text.contains("# TYPE c_total counter\nc_total 3\n"));
        assert!(text.contains("# TYPE g gauge\ng 2.5\n"));
        assert!(text.contains("# TYPE h histogram\n"));
        assert!(text.contains("h_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("h_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("h_sum 1.5\n"));
        assert!(text.contains("h_count 1\n"));
    }

    /// An observer whose attached two-slot timeline saw five intervals.
    fn observer_with_overflowed_timeline() -> Observer {
        let obs = Observer::enabled().with_timeline(Timeline::bounded(2));
        for i in 0..5 {
            obs.timeline().record("s", TraceCtx::for_user(i), 0, 1);
        }
        obs
    }

    #[test]
    fn summary_lists_every_metric_and_trace_totals() {
        let obs = observer_with_overflowed_timeline();
        obs.counter("frames").add(12);
        obs.gauge("joules").set(0.25);
        obs.histogram("lat", &[1.0]).observe(0.5);
        let s = obs.summary();
        assert!(s.contains("frames"));
        assert!(s.contains("joules"));
        assert!(s.contains("lat"));
        assert!(s.contains("2 events retained, 3 dropped"));
        // Without a timeline there is no event record to count.
        assert!(Observer::enabled().summary().contains("0 events retained, 0 dropped"));
    }

    #[test]
    fn report_json_contains_all_sections() {
        let obs = Observer::enabled();
        obs.counter("c").inc();
        obs.gauge("g").set(1.0);
        obs.histogram("h", &[1.0]).observe(2.0);
        let report = obs.report_json("unit \"test\"");
        assert!(report.contains("\"label\":\"unit \\\"test\\\"\""));
        assert!(report.contains("\"counters\":{\"c\":1}"));
        assert!(report.contains("\"gauges\":{\"g\":1}"));
        assert!(report.contains("\"mean\":2"));
        assert!(report.contains("\"overflow\":1"));
        assert!(report.contains("\"trace\":{\"events_recorded\":0,\"events_dropped\":0}"));
        assert!(!report.contains("evr_obs_spans_dropped_total"));
        assert!(report.ends_with("}\n"));

        let timed = observer_with_overflowed_timeline().report_json("timed");
        assert!(timed.contains("\"evr_obs_timeline_events_dropped_total\":3"));
        assert!(timed.contains("\"trace\":{\"events_recorded\":2,\"events_dropped\":3}"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Observer::enabled();
        let clone = obs.clone();
        clone.counter("shared").inc();
        assert_eq!(obs.counter("shared").get(), 1);
    }

    #[test]
    fn energy_gauge_names_are_lowercased() {
        assert_eq!(names::energy_gauge("Compute"), "evr_energy_joules_compute");
        assert_eq!(names::energy_gauge("Display"), "evr_energy_joules_display");
    }
}
