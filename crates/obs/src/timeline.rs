//! Per-worker timeline profiler: who ran what, when, and for whom.
//!
//! The aggregate histograms ([`crate::Histogram`]) answer "how long does
//! a stage take on average" but cannot explain *flat scaling*: a fleet
//! that speeds up 1.0x with 8 workers looks identical to a healthy one
//! in every histogram. The [`Timeline`] answers the question the
//! histograms cannot: it records `(worker, stage, t_start, t_end, ctx)`
//! interval events into a bounded ring and exports them in Chrome Trace
//! Event Format, so a run becomes a per-thread Gantt chart in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) — gaps are
//! idle workers, long bars are stragglers, and interleaving (or its
//! absence) is visible at a glance.
//!
//! Each event carries a [`TraceCtx`] — the user, segment, and request id
//! the work was done for — threaded from `FleetRunner` through the
//! playback pipeline into `SasServer::fetch_fov`. That makes the
//! slowest-N exemplar table possible: not just "p99 of fetch is 4 ms"
//! but "the worst fetch was 4 ms, for user 17, segment 3, request 2041".
//!
//! The ring is bounded: a long run degrades to the newest window plus a
//! drop count, never unbounded memory. The whole module follows the
//! crate's no-op discipline — a [`Timeline::noop`] handle makes every
//! recording call a `None` branch.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default number of timeline events retained before the ring
/// overwrites the oldest.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 262_144;

/// Request-scoped trace context: *whose* work an interval represents.
///
/// `Copy` and three words wide, so it is threaded by value through the
/// pipeline stages with no allocation. `-1` / `0` mean "not scoped":
/// a fleet-level interval has no segment, an un-traced request no id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// User index the work belongs to, or -1 when not user-scoped.
    pub user: i64,
    /// Segment index, or -1 when not segment-scoped.
    pub segment: i64,
    /// Server request id (from [`Timeline::next_request_id`]), or 0
    /// when no request is in flight.
    pub request: u64,
}

impl TraceCtx {
    /// A context scoped to nothing — the default for untraced entry
    /// points.
    pub const fn anonymous() -> Self {
        TraceCtx { user: -1, segment: -1, request: 0 }
    }

    /// A context scoped to one fleet user.
    pub const fn for_user(user: i64) -> Self {
        TraceCtx { user, segment: -1, request: 0 }
    }

    /// This context narrowed to one segment.
    pub const fn with_segment(self, segment: i64) -> Self {
        TraceCtx { segment, ..self }
    }
}

/// One recorded interval: `stage` ran on `worker` from `start_ns` to
/// `end_ns` (nanoseconds since the timeline was created) on behalf of
/// `ctx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Worker lane (thread) the interval ran on; 0 outside any pool.
    pub worker: u32,
    /// Stage name (static so recording never allocates).
    pub stage: &'static str,
    /// Interval start, nanoseconds since the timeline epoch.
    pub start_ns: u64,
    /// Interval end, nanoseconds since the timeline epoch.
    pub end_ns: u64,
    /// Whose work this was.
    pub ctx: TraceCtx,
}

impl TimelineEvent {
    /// Interval duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Worker lane of the current thread; set by the fan-out pools
    /// (FleetRunner, SAS ingest) via [`with_worker`], 0 elsewhere.
    static CURRENT_WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Worker lane recorded for events emitted from this thread.
#[inline]
pub fn current_worker() -> u32 {
    CURRENT_WORKER.get()
}

/// Runs `f` with this thread's worker lane set to `worker`, restoring
/// the previous lane afterwards. Worker pools wrap their per-thread
/// loops in this so every timeline event emitted inside lands on the
/// right Gantt row.
pub fn with_worker<R>(worker: u32, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT_WORKER.replace(worker);
    struct Restore(u32);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_WORKER.set(self.0);
        }
    }
    let _restore = Restore(prev);
    f()
}

#[derive(Debug)]
struct Ring {
    buf: Vec<TimelineEvent>,
    /// Index the next event is written to.
    next: usize,
    /// Number of live events (saturates at capacity).
    len: usize,
}

#[derive(Debug)]
struct TimelineInner {
    ring: Mutex<Ring>,
    capacity: usize,
    dropped: AtomicU64,
    epoch: Instant,
    next_request: AtomicU64,
}

/// Bounded per-worker interval recorder; see the module docs.
///
/// Cheaply clonable (an `Option<Arc>`), no-op by default. All
/// recording methods on a no-op handle are a `None` branch.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    inner: Option<Arc<TimelineInner>>,
}

impl Timeline {
    /// A timeline that records nothing and costs (almost) nothing.
    pub fn noop() -> Self {
        Timeline { inner: None }
    }

    /// An enabled timeline retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "timeline capacity must be positive");
        Timeline {
            inner: Some(Arc::new(TimelineInner {
                // Grown on demand: a default-capacity ring would be a
                // multi-megabyte up-front allocation per observer.
                ring: Mutex::new(Ring { buf: Vec::new(), next: 0, len: 0 }),
                capacity,
                dropped: AtomicU64::new(0),
                epoch: Instant::now(),
                next_request: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled timeline with the default capacity.
    pub fn enabled() -> Self {
        Self::bounded(DEFAULT_TIMELINE_CAPACITY)
    }

    /// Whether this handle records anything. Callers hoist this out of
    /// hot loops and skip the clock reads entirely when false.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the timeline was created (0 for a no-op).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// A fresh non-zero request id for request-scoped tracing (0 for a
    /// no-op, meaning "unassigned").
    #[inline]
    pub fn next_request_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.next_request.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records one interval on the current thread's worker lane.
    #[inline]
    pub fn record(&self, stage: &'static str, ctx: TraceCtx, start_ns: u64, end_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.push(TimelineEvent { worker: current_worker(), stage, start_ns, end_ns, ctx });
        }
    }

    /// Recorded events in oldest-to-newest order (empty for a no-op).
    pub fn events(&self) -> Vec<TimelineEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            let ring = i.ring.lock().expect("timeline ring poisoned");
            if ring.len < i.capacity {
                ring.buf.clone()
            } else {
                let mut out = Vec::with_capacity(ring.len);
                out.extend_from_slice(&ring.buf[ring.next..]);
                out.extend_from_slice(&ring.buf[..ring.next]);
                out
            }
        })
    }

    /// Number of events the ring holds now (0 for a no-op).
    pub(crate) fn retained(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.lock().expect("timeline ring poisoned").len)
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Maximum number of retained events (0 for a no-op).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.capacity)
    }

    /// The recorded timeline in Chrome Trace Event Format: a single
    /// JSON object whose `traceEvents` are complete (`"ph":"X"`)
    /// events, `ts`/`dur` in microseconds, one `tid` per worker lane.
    /// Load the file in `chrome://tracing` or <https://ui.perfetto.dev>
    /// to see the per-worker Gantt chart.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// Writes [`Timeline::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// The slowest `n` events of every stage, as
    /// `(stage, worst-first events)` sorted by stage name.
    pub fn exemplars(&self, n: usize) -> Vec<(&'static str, Vec<TimelineEvent>)> {
        exemplars(&self.events(), n)
    }

    /// Human-readable slowest-N exemplar table: per stage, the worst
    /// offenders with the [`TraceCtx`] they ran for. Empty string when
    /// nothing was recorded.
    pub fn exemplar_table(&self, n: usize) -> String {
        exemplar_table(&self.exemplars(n))
    }
}

impl TimelineInner {
    fn push(&self, event: TimelineEvent) {
        let mut ring = self.ring.lock().expect("timeline ring poisoned");
        if ring.len < self.capacity {
            ring.buf.push(event);
            ring.len += 1;
            ring.next = ring.len % self.capacity;
        } else {
            let slot = ring.next;
            ring.buf[slot] = event;
            ring.next = (slot + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Renders `events` in Chrome Trace Event Format (see
/// [`Timeline::chrome_trace_json`]). Events are sorted by start time so
/// the output is deterministic for a given event set.
pub fn chrome_trace_json(events: &[TimelineEvent]) -> String {
    let mut ordered: Vec<&TimelineEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.start_ns, e.worker, e.end_ns));
    let mut out = String::with_capacity(128 + ordered.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"evr\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"user\":{},\"segment\":{},\"request\":{}}}}}",
            e.stage,
            e.start_ns as f64 / 1e3,
            e.duration_ns() as f64 / 1e3,
            e.worker,
            e.ctx.user,
            e.ctx.segment,
            e.ctx.request,
        );
    }
    out.push_str("]}\n");
    out
}

/// The slowest `n` events per stage, worst first, stages sorted by
/// name. Standalone so bench tooling can run it over filtered slices.
pub fn exemplars(events: &[TimelineEvent], n: usize) -> Vec<(&'static str, Vec<TimelineEvent>)> {
    let mut by_stage: Vec<(&'static str, Vec<TimelineEvent>)> = Vec::new();
    for e in events {
        match by_stage.iter_mut().find(|(s, _)| *s == e.stage) {
            Some((_, v)) => v.push(*e),
            None => by_stage.push((e.stage, vec![*e])),
        }
    }
    by_stage.sort_by_key(|(s, _)| *s);
    for (_, v) in &mut by_stage {
        // Stable tie-break on start time so equal durations order
        // deterministically.
        v.sort_by_key(|e| (std::cmp::Reverse(e.duration_ns()), e.start_ns, e.worker));
        v.truncate(n);
    }
    by_stage
}

/// Renders [`exemplars`] output as a fixed-width text table.
pub fn exemplar_table(exemplars: &[(&'static str, Vec<TimelineEvent>)]) -> String {
    if exemplars.is_empty() {
        return String::new();
    }
    let stage_width = exemplars
        .iter()
        .map(|(s, _)| s.len())
        .chain(std::iter::once("stage".len()))
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<stage_width$}  {:>4}  {:>12}  {:>6}  {:>6}  {:>7}  {:>8}",
        "stage", "rank", "duration_ms", "worker", "user", "segment", "request"
    );
    let _ = writeln!(
        out,
        "{}  {}  {}  {}  {}  {}  {}",
        "-".repeat(stage_width),
        "-".repeat(4),
        "-".repeat(12),
        "-".repeat(6),
        "-".repeat(6),
        "-".repeat(7),
        "-".repeat(8),
    );
    for (stage, events) in exemplars {
        for (rank, e) in events.iter().enumerate() {
            let _ = writeln!(
                out,
                "{stage:<stage_width$}  {:>4}  {:>12.4}  {:>6}  {:>6}  {:>7}  {:>8}",
                rank + 1,
                e.duration_ns() as f64 / 1e6,
                e.worker,
                e.ctx.user,
                e.ctx.segment,
                e.ctx.request,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: u32, stage: &'static str, start: u64, end: u64, user: i64) -> TimelineEvent {
        TimelineEvent {
            worker,
            stage,
            start_ns: start,
            end_ns: end,
            ctx: TraceCtx::for_user(user).with_segment(user + 10),
        }
    }

    #[test]
    fn noop_timeline_records_nothing() {
        let tl = Timeline::noop();
        tl.record("stage", TraceCtx::anonymous(), 0, 10);
        assert!(!tl.is_enabled());
        assert!(tl.events().is_empty());
        assert_eq!(tl.dropped(), 0);
        assert_eq!(tl.capacity(), 0);
        assert_eq!(tl.now_ns(), 0);
        assert_eq!(tl.next_request_id(), 0);
        assert_eq!(tl.chrome_trace_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
        assert!(tl.exemplar_table(3).is_empty());
    }

    #[test]
    fn default_is_noop() {
        assert!(!Timeline::default().is_enabled());
    }

    #[test]
    fn records_intervals_with_ctx_and_worker() {
        let tl = Timeline::bounded(16);
        let t0 = tl.now_ns();
        let ctx = TraceCtx::for_user(7).with_segment(3);
        with_worker(2, || tl.record("render", ctx, t0, t0 + 500));
        let events = tl.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].worker, 2);
        assert_eq!(events[0].stage, "render");
        assert_eq!(events[0].ctx, TraceCtx { user: 7, segment: 3, request: 0 });
        assert_eq!(events[0].duration_ns(), 500);
    }

    #[test]
    fn worker_lane_restores_after_scope() {
        assert_eq!(current_worker(), 0);
        with_worker(5, || {
            assert_eq!(current_worker(), 5);
            with_worker(9, || assert_eq!(current_worker(), 9));
            assert_eq!(current_worker(), 5);
        });
        assert_eq!(current_worker(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let tl = Timeline::bounded(4);
        for i in 0..10u64 {
            tl.record("s", TraceCtx::for_user(i as i64), i, i + 1);
        }
        let events = tl.events();
        assert_eq!(events.len(), 4);
        let users: Vec<i64> = events.iter().map(|e| e.ctx.user).collect();
        assert_eq!(users, vec![6, 7, 8, 9]);
        assert_eq!(tl.dropped(), 6);
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let tl = Timeline::bounded(4);
        let a = tl.next_request_id();
        let b = tl.next_request_id();
        assert!(a > 0);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn chrome_trace_is_well_formed_and_sorted() {
        let events = vec![ev(1, "fetch", 2_000, 5_000, 1), ev(0, "plan", 1_000, 1_500, 0)];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        // Sorted by start time: plan (1µs) precedes fetch (2µs).
        let plan = json.find("\"name\":\"plan\"").unwrap();
        let fetch = json.find("\"name\":\"fetch\"").unwrap();
        assert!(plan < fetch);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":0.500"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"args\":{\"user\":0,\"segment\":10,\"request\":0}"));
    }

    #[test]
    fn exemplars_rank_worst_first_per_stage() {
        let events = vec![
            ev(0, "render", 0, 100, 0),
            ev(1, "render", 0, 900, 1),
            ev(0, "render", 0, 400, 2),
            ev(1, "fetch", 0, 50, 3),
        ];
        let ex = exemplars(&events, 2);
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].0, "fetch");
        assert_eq!(ex[1].0, "render");
        let render: Vec<u64> = ex[1].1.iter().map(|e| e.duration_ns()).collect();
        assert_eq!(render, vec![900, 400]);

        let table = exemplar_table(&ex);
        assert!(table.contains("stage"));
        assert!(table.contains("render"));
        assert!(table.contains("fetch"));
        // The worst render ran for user 1, segment 11.
        let worst = table.lines().find(|l| l.contains("0.0009")).unwrap();
        assert!(worst.contains('1') && worst.contains("11"), "{worst}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Timeline::bounded(0);
    }

    #[test]
    fn clones_share_state() {
        let tl = Timeline::bounded(8);
        let clone = tl.clone();
        clone.record("s", TraceCtx::anonymous(), 0, 1);
        assert_eq!(tl.events().len(), 1);
        assert_eq!(clone.next_request_id(), 1);
        assert_eq!(tl.next_request_id(), 2);
    }
}
