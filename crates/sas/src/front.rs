//! The sharded, overload-resilient serving front.
//!
//! [`SasServer`] answers one request at a time and assumes it always
//! can. At fleet scale ("millions of users", ROADMAP item 2) the cloud
//! side needs the machinery real serving tiers have: the key space
//! sharded across independent lanes, bounded per-shard queues with
//! **admission control**, **load shedding** that degrades to a cheap
//! low-rung original response rather than queueing unboundedly,
//! **request coalescing** so a thundering herd on one segment runs one
//! build, and a per-shard **circuit breaker** so clients stop hammering
//! a dead shard. [`SasFront`] adds exactly that layer on top of an
//! existing server, and doubles as the injection point for the
//! server-side fault vocabulary in `evr-faults`
//! ([`ServerFaultEvent`](evr_faults::ServerFaultEvent): shard outages,
//! slow shards, store eviction storms).
//!
//! # Determinism
//!
//! Load is modelled in *simulated* time: each shard keeps a virtual
//! clock `next_free_s`; a request arriving at `t` sees a backlog of
//! `next_free_s - t`, and admission/shedding are pure functions of that
//! backlog and the fault plan. [`SasFront::serve_batch`] splits a batch
//! of FOV and tile [`Request`]s into a **serial admission pass** (arrival
//! order, calling thread — the only place shared mutable state is
//! touched) and a **parallel execution pass** over the admitted requests
//! (pure catalog/store reads, fanned out via the same chunked-scheduling
//! helper as ingest and merged back in input order). The report is
//! therefore byte-identical for any worker count — the same contract as
//! `FleetRunner` and `evr_sched::run_chunked`, argued in DESIGN.md §14.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use evr_faults::{BreakerState, CircuitBreaker, FrontProfile, ServerFaultPlan};

use crate::prerender::PrerenderedFov;
use crate::server::{SasError, SasServer};
use crate::tiles::TileRung;

/// What a client asks the front for. A tile is one more representation
/// of a segment (as in DASH-SRD), so both kinds are keyed on their
/// segment and share sharding, admission, shedding and coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// The top-rung FOV video of `cluster` for `segment`
    /// ([`SasServer::fetch_fov`]).
    Fov {
        /// Temporal segment index.
        segment: u32,
        /// Cluster index within the segment.
        cluster: usize,
    },
    /// One tile of `segment` at one quality rung
    /// ([`SasServer::fetch_tile`]); the `T`/`T+H` delivery modes.
    Tile {
        /// Temporal segment index.
        segment: u32,
        /// Tile index within the grid (row-major).
        tile: usize,
        /// Quality-rung index (coarsest first).
        rung: usize,
    },
}

impl Request {
    /// The segment the request is routed and admitted on.
    fn segment(&self) -> u32 {
        match *self {
            Request::Fov { segment, .. } | Request::Tile { segment, .. } => segment,
        }
    }
}

/// One client request as the front sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontRequest {
    /// Requesting user (report labelling only — routing ignores it).
    pub user: u64,
    /// What is asked for.
    pub request: Request,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
}

/// A served response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// The pre-rendered FOV stream of a [`Request::Fov`].
    Fov(Arc<PrerenderedFov>),
    /// The tile encoding's byte accounting of a [`Request::Tile`].
    Tile(TileRung),
}

/// Why the front refused to queue a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's bounded queue is full.
    QueueFull,
    /// Queueing delay would exceed the latency budget.
    LatencyBudget,
}

/// The admission decision for one request (phase one of
/// [`SasFront::serve_batch`]; also available stand-alone via
/// [`SasFront::admit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Queued on `shard`; the response arrives after
    /// `queue_delay_s + service_s`.
    Serve {
        /// Owning shard.
        shard: u32,
        /// Simulated wait behind earlier requests, seconds.
        queue_delay_s: f64,
        /// Simulated service time (degradations included), seconds.
        service_s: f64,
    },
    /// Refused under load; the front answers with a low-rung response
    /// instead (cheap, constant cost — never unbounded queueing).
    Shed {
        /// Owning shard.
        shard: u32,
        /// Why the request was shed.
        reason: ShedReason,
        /// Simulated latency of the shed response, seconds.
        latency_s: f64,
    },
    /// Shard outage or open circuit breaker — no response.
    Unavailable {
        /// Owning shard.
        shard: u32,
    },
}

/// What one request in a batch ultimately received.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The requested FOV stream or tile.
    Served {
        /// The response body.
        payload: Payload,
        /// Wire size at target (paper) scale, bytes.
        wire_bytes: u64,
        /// Total simulated latency (queue + service), seconds.
        latency_s: f64,
        /// Whether this request reused another in-flight build of the
        /// same [`Request`] instead of executing its own.
        coalesced: bool,
    },
    /// Shed to the low-rung original (FOV) or the coarsest rung of the
    /// same tile.
    Shed {
        /// Why the request was shed.
        reason: ShedReason,
        /// Wire size of the shed response, bytes.
        wire_bytes: u64,
        /// Simulated latency of the shed response, seconds.
        latency_s: f64,
    },
    /// Shard outage or open breaker.
    Unavailable,
    /// The requested stream or tile does not exist (client error, not
    /// load).
    NotFound {
        /// The catalog's verdict.
        error: SasError,
    },
}

/// Outcome of one [`FrontRequest`] in a batch, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The request this outcome answers.
    pub request: FrontRequest,
    /// What it received.
    pub disposition: Disposition,
}

/// Deterministic summary of one [`SasFront::serve_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-request outcomes, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Requests served with their FOV stream or tile.
    pub served: u64,
    /// Requests shed to a low-rung response.
    pub shed: u64,
    /// Requests refused entirely (outage / open breaker).
    pub unavailable: u64,
    /// Requests for streams or tiles that do not exist.
    pub not_found: u64,
    /// Served requests that reused another request's build.
    pub coalesced: u64,
    /// Deepest per-shard queue observed during admission.
    pub peak_queue_depth: u32,
}

impl BatchReport {
    /// Fraction of requests shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        let total = self.outcomes.len();
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    /// Simulated latencies of every answered (served or shed) request,
    /// sorted ascending — percentile material for benches.
    pub fn answered_latencies_s(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| match &o.disposition {
                Disposition::Served { latency_s, .. } | Disposition::Shed { latency_s, .. } => {
                    Some(*latency_s)
                }
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.total_cmp(b));
        out
    }
}

/// Mutable per-shard lane: the virtual clock, the breaker and counters.
/// Touched only during the serial admission pass (or single-request
/// [`SasFront::admit`] calls), each lane behind its own `RwLock` so
/// concurrent *read-only* inspection (stats, tests) never contends
/// across shards.
#[derive(Debug)]
struct ShardLane {
    /// Simulated time at which this shard drains its queue.
    next_free_s: f64,
    breaker: CircuitBreaker,
    served: u64,
    shed: u64,
    unavailable: u64,
    peak_queue_depth: u32,
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Requests admitted and served.
    pub served: u64,
    /// Requests shed to a low-rung response.
    pub shed: u64,
    /// Requests refused (outage / open breaker).
    pub unavailable: u64,
    /// Deepest queue observed.
    pub peak_queue_depth: u32,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Current breaker state.
    pub breaker: BreakerState,
}

/// Pre-resolved counters for an observed front.
#[derive(Debug, Clone, Default)]
struct FrontMetrics {
    requests: evr_obs::Counter,
    served: evr_obs::Counter,
    shed: evr_obs::Counter,
    unavailable: evr_obs::Counter,
    coalesced: evr_obs::Counter,
    timeline: evr_obs::Timeline,
}

/// The sharded serving front over one [`SasServer`].
#[derive(Debug)]
pub struct SasFront {
    server: SasServer,
    plan: ServerFaultPlan,
    lanes: Vec<RwLock<ShardLane>>,
    metrics: FrontMetrics,
}

impl SasFront {
    /// Builds a healthy front: `profile` shards over `server`, breakers
    /// seeded per shard from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(server: SasServer, profile: FrontProfile, seed: u64) -> Self {
        Self::with_faults(server, ServerFaultPlan::new(profile, Vec::new()), seed)
    }

    /// Builds a front with scheduled server-side faults injected
    /// through it (the plan carries its own [`FrontProfile`]).
    pub fn with_faults(server: SasServer, plan: ServerFaultPlan, seed: u64) -> Self {
        let profile = *plan.profile();
        let lanes = (0..profile.shards)
            .map(|shard| {
                RwLock::new(ShardLane {
                    next_free_s: 0.0,
                    breaker: CircuitBreaker::new(
                        profile.breaker,
                        seed ^ u64::from(shard).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ),
                    served: 0,
                    shed: 0,
                    unavailable: 0,
                    peak_queue_depth: 0,
                })
            })
            .collect();
        SasFront { server, plan, lanes, metrics: FrontMetrics::default() }
    }

    /// The wrapped server.
    pub fn server(&self) -> &SasServer {
        &self.server
    }

    /// The active fault plan (empty events on a healthy front).
    pub fn plan(&self) -> &ServerFaultPlan {
        &self.plan
    }

    /// The shard that owns `segment` of this front's content.
    pub fn shard_of(&self, segment: u32) -> u32 {
        self.plan.profile().shard_of(self.server.catalog().content_id(), segment)
    }

    /// A snapshot of one shard's counters and breaker state.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_stats(&self, shard: u32) -> ShardStats {
        let lane = self.lanes[shard as usize].read();
        ShardStats {
            served: lane.served,
            shed: lane.shed,
            unavailable: lane.unavailable,
            peak_queue_depth: lane.peak_queue_depth,
            breaker_trips: lane.breaker.trips(),
            breaker: lane.breaker.state(),
        }
    }

    /// Routes the front's counters into `observer` (`evr_sas_front_*`)
    /// and forwards to the wrapped server's instrumentation.
    pub fn set_observer(&mut self, observer: &evr_obs::Observer) {
        use evr_obs::names;
        self.metrics = FrontMetrics {
            requests: observer.counter(names::SAS_FRONT_REQUESTS),
            served: observer.counter(names::SAS_FRONT_SERVED),
            shed: observer.counter(names::SAS_FRONT_SHED),
            unavailable: observer.counter(names::SAS_FRONT_UNAVAILABLE),
            coalesced: observer.counter(names::SAS_FRONT_COALESCED),
            timeline: observer.timeline().clone(),
        };
        self.server.set_observer(observer);
        self.mirror_gauges(observer);
    }

    /// Publishes the current peak queue depth and breaker-trip total as
    /// gauges (idempotent; called by [`SasFront::set_observer`] and
    /// whenever a fresh snapshot is wanted).
    pub fn mirror_gauges(&self, observer: &evr_obs::Observer) {
        if !observer.is_enabled() {
            return;
        }
        use evr_obs::names;
        let (mut peak, mut trips) = (0u32, 0u64);
        for lane in &self.lanes {
            let lane = lane.read();
            peak = peak.max(lane.peak_queue_depth);
            trips += lane.breaker.trips();
        }
        observer.gauge(names::SAS_FRONT_PEAK_QUEUE_DEPTH).set(f64::from(peak));
        observer.gauge(names::SAS_FRONT_BREAKER_TRIPS).set(trips as f64);
    }

    /// Admission control for one request arriving at simulated time
    /// `t`: routes to the owning shard, consults the breaker and the
    /// fault plan, and either queues (advancing the shard's virtual
    /// clock) or sheds/refuses. Order-dependent — callers needing
    /// determinism must admit in a fixed order ([`SasFront::serve_batch`]
    /// uses input order on the calling thread).
    pub fn admit(&self, segment: u32, t: f64) -> Admission {
        let profile = *self.plan.profile();
        let shard = self.shard_of(segment);
        let lane = &mut *self.lanes[shard as usize].write();

        if !lane.breaker.allow(t) {
            lane.unavailable += 1;
            return Admission::Unavailable { shard };
        }
        if self.plan.shard_down_at(shard, t) {
            lane.breaker.on_failure(t);
            lane.unavailable += 1;
            return Admission::Unavailable { shard };
        }
        let service_s = self.plan.service_time_at(shard, t);
        let backlog_s = (lane.next_free_s - t).max(0.0);
        let depth = (backlog_s / service_s).ceil() as u32;
        lane.peak_queue_depth = lane.peak_queue_depth.max(depth);
        if depth >= profile.queue_capacity {
            lane.breaker.on_success();
            lane.shed += 1;
            return Admission::Shed {
                shard,
                reason: ShedReason::QueueFull,
                latency_s: profile.service_time_s,
            };
        }
        if backlog_s > profile.shed_latency_s {
            lane.breaker.on_success();
            lane.shed += 1;
            return Admission::Shed {
                shard,
                reason: ShedReason::LatencyBudget,
                latency_s: profile.service_time_s,
            };
        }
        lane.breaker.on_success();
        lane.served += 1;
        lane.next_free_s = t + backlog_s + service_s;
        Admission::Serve { shard, queue_delay_s: backlog_s, service_s }
    }

    /// Serves a whole batch of FOV and tile requests: a serial admission
    /// pass in input order, then the admitted fetches — deduplicated per
    /// [`Request`] so identical concurrent fetches coalesce into one —
    /// executed across `workers` threads with `evr_sched::run_chunked`
    /// and merged back in input order. Byte-identical output for any
    /// `workers` value; only wall-clock changes.
    ///
    /// A shed FOV request is answered with the low-rung original, a shed
    /// tile request with the coarsest rung of the same tile.
    pub fn serve_batch(&self, requests: &[FrontRequest], workers: usize) -> BatchReport {
        self.metrics.requests.add(requests.len() as u64);

        // Phase 1 (serial, calling thread): admission in input order —
        // the only phase that touches shared mutable shard state.
        let admissions: Vec<Admission> =
            requests.iter().map(|r| self.admit(r.request.segment(), r.arrival_s)).collect();

        // Unique admitted requests, in first-appearance order (stable
        // under any worker count because it derives from input order
        // alone).
        let mut unique: Vec<Request> = Vec::new();
        let mut key_index: HashMap<Request, usize> = HashMap::new();
        for (req, adm) in requests.iter().zip(&admissions) {
            if matches!(adm, Admission::Serve { .. }) {
                key_index.entry(req.request).or_insert_with(|| {
                    unique.push(req.request);
                    unique.len() - 1
                });
            }
        }

        // Phase 2 (parallel, pure): one catalog/store read per unique
        // request. Each fetch is a pure function of its request — shared
        // state is only the store, and first-insert-wins keeps every
        // worker's payload byte-identical.
        let fetch = |request: Request| match request {
            Request::Fov { segment, cluster } => {
                self.server.fetch_fov(segment, cluster).map(|(p, wire)| (Payload::Fov(p), wire))
            }
            Request::Tile { segment, tile, rung } => {
                self.server.fetch_tile(segment, tile, rung).map(|r| {
                    let wire = r.wire_bytes;
                    (Payload::Tile(r), wire)
                })
            }
        };
        let tl = &self.metrics.timeline;
        let built: Vec<Result<(Payload, u64), SasError>> =
            evr_sched::run_chunked(unique.len() as u64, workers, 0, |i| {
                let request = unique[i as usize];
                if !tl.is_enabled() {
                    return fetch(request);
                }
                let t0 = tl.now_ns();
                let result = fetch(request);
                tl.record(
                    evr_obs::names::TIMELINE_FRONT_SERVE,
                    evr_obs::TraceCtx::anonymous().with_segment(i64::from(request.segment())),
                    t0,
                    tl.now_ns(),
                );
                result
            });

        // Phase 3 (serial): reassemble outcomes in input order.
        let mut report = BatchReport {
            outcomes: Vec::with_capacity(requests.len()),
            served: 0,
            shed: 0,
            unavailable: 0,
            not_found: 0,
            coalesced: 0,
            peak_queue_depth: self.peak_queue_depth(),
        };
        let mut used = vec![false; unique.len()];
        for (req, adm) in requests.iter().zip(&admissions) {
            let disposition = match *adm {
                Admission::Serve { queue_delay_s, service_s, .. } => {
                    let index = key_index[&req.request];
                    match &built[index] {
                        Ok((payload, wire_bytes)) => {
                            let coalesced = std::mem::replace(&mut used[index], true);
                            if coalesced {
                                report.coalesced += 1;
                            }
                            report.served += 1;
                            Disposition::Served {
                                payload: payload.clone(),
                                wire_bytes: *wire_bytes,
                                latency_s: queue_delay_s + service_s,
                                coalesced,
                            }
                        }
                        Err(error) => {
                            report.not_found += 1;
                            Disposition::NotFound { error: *error }
                        }
                    }
                }
                Admission::Shed { reason, latency_s, .. } => {
                    report.shed += 1;
                    Disposition::Shed {
                        reason,
                        wire_bytes: self.shed_wire_bytes(req.request),
                        latency_s,
                    }
                }
                Admission::Unavailable { .. } => {
                    report.unavailable += 1;
                    Disposition::Unavailable
                }
            };
            report.outcomes.push(BatchOutcome { request: *req, disposition });
        }

        self.metrics.served.add(report.served);
        self.metrics.shed.add(report.shed);
        self.metrics.unavailable.add(report.unavailable);
        self.metrics.coalesced.add(report.coalesced);
        report
    }

    /// Wire bytes of the shed response to `request`, scaled by the
    /// profile's `shed_byte_scale`: the segment's full original for an
    /// FOV request, the coarsest rung of the tile for a tile request;
    /// zero if the segment or tile does not exist.
    fn shed_wire_bytes(&self, request: Request) -> u64 {
        let full = match request {
            Request::Fov { segment, .. } => {
                self.server.catalog().original_target_bytes(segment).unwrap_or(0)
            }
            Request::Tile { segment, tile, .. } => {
                let Some(tiles) = self.server.tiles() else { return 0 };
                if segment >= tiles.segment_count() || tile >= tiles.grid().len() {
                    return 0;
                }
                tiles.rung(segment, tile, 0).wire_bytes
            }
        };
        (full as f64 * self.plan.profile().shed_byte_scale).round() as u64
    }

    /// Deepest queue observed on any shard so far.
    pub fn peak_queue_depth(&self) -> u32 {
        self.lanes.iter().map(|l| l.read().peak_queue_depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SasConfig;
    use crate::ingest::{ingest_video_with, IngestOptions};
    use crate::prerender::FovPrerenderStore;
    use evr_faults::ServerFaultEvent;
    use evr_video::library::{scene_for, VideoId};

    fn test_server() -> SasServer {
        let cfg = SasConfig::tiny_for_tests();
        let catalog =
            ingest_video_with(&scene_for(VideoId::Rhino), &cfg, 1.0, &IngestOptions::default())
                .expect("tiny config ingests");
        SasServer::with_store(catalog, FovPrerenderStore::new())
    }

    fn profile() -> FrontProfile {
        FrontProfile { shards: 4, ..FrontProfile::default() }
    }

    /// A deterministic request storm at `factor`× the front's aggregate
    /// capacity, spread over every live segment.
    fn storm(
        server: &SasServer,
        profile: &FrontProfile,
        factor: f64,
        n: usize,
    ) -> Vec<FrontRequest> {
        let catalog = server.catalog();
        let segments: Vec<(u32, usize)> = (0..catalog.segment_count())
            .filter_map(|s| catalog.clusters_in_segment(s).first().map(|&c| (s, c)))
            .collect();
        assert!(!segments.is_empty());
        let capacity_rps = profile.shard_capacity_rps() * f64::from(profile.shards);
        let dt = 1.0 / (capacity_rps * factor);
        (0..n)
            .map(|i| {
                let (segment, cluster) = segments[i % segments.len()];
                let request = Request::Fov { segment, cluster };
                FrontRequest { user: i as u64, request, arrival_s: i as f64 * dt }
            })
            .collect()
    }

    #[test]
    fn routing_is_stable_and_within_range() {
        let front = SasFront::new(test_server(), profile(), 7);
        for seg in 0..front.server().catalog().segment_count() {
            let s = front.shard_of(seg);
            assert!(s < 4);
            assert_eq!(s, front.shard_of(seg));
        }
    }

    #[test]
    fn unloaded_front_serves_everything() {
        let front = SasFront::new(test_server(), profile(), 7);
        let requests = storm(front.server(), &profile(), 0.25, 32);
        let report = front.serve_batch(&requests, 2);
        assert_eq!(report.served, 32);
        assert_eq!(report.shed, 0);
        assert_eq!(report.unavailable, 0);
        assert!(report.outcomes.iter().all(|o| matches!(
            o.disposition,
            Disposition::Served { wire_bytes, latency_s, .. } if wire_bytes > 0 && latency_s > 0.0
        )));
    }

    #[test]
    fn overload_sheds_deterministically_with_bounded_queues() {
        let p = profile();
        let requests = storm(&test_server(), &p, 4.0, 512);
        let reports: Vec<BatchReport> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                // Fresh front per run: admission state is stateful by
                // design; determinism is across *worker counts*.
                let front = SasFront::new(test_server(), p, 7);
                front.serve_batch(&requests, workers)
            })
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 workers");
        assert_eq!(reports[0], reports[2], "1 vs 8 workers");

        let r = &reports[0];
        assert!(r.shed > 0, "4x overload must shed");
        assert!(r.served > 0, "admission must still serve the head of each queue");
        assert!(r.peak_queue_depth <= p.queue_capacity, "queue depth must stay bounded");
        assert!(r.shed_rate() > 0.5, "most of a 4x storm is shed: {}", r.shed_rate());
        for o in &r.outcomes {
            if let Disposition::Shed { wire_bytes, latency_s, .. } = &o.disposition {
                assert!(*wire_bytes > 0, "shed responses still carry the low-rung original");
                assert!(*latency_s > 0.0);
            }
        }
    }

    #[test]
    fn identical_concurrent_fetches_coalesce() {
        let front = SasFront::new(test_server(), profile(), 7);
        let catalog = front.server().catalog();
        let cluster = catalog.clusters_in_segment(0)[0];
        // Four users ask for the same key well under capacity.
        let request = Request::Fov { segment: 0, cluster };
        let requests: Vec<FrontRequest> =
            (0..4).map(|i| FrontRequest { user: i, request, arrival_s: i as f64 * 0.1 }).collect();
        let report = front.serve_batch(&requests, 4);
        assert_eq!(report.served, 4);
        assert_eq!(report.coalesced, 3, "one build, three reuses");
        let payloads: Vec<_> = report
            .outcomes
            .iter()
            .map(|o| match &o.disposition {
                Disposition::Served { payload: Payload::Fov(p), .. } => Arc::clone(p),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(payloads.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn shard_outage_trips_the_breaker_then_recovers() {
        let p = FrontProfile { shards: 1, ..FrontProfile::default() };
        let plan = ServerFaultPlan::new(p, Vec::new()).with(ServerFaultEvent::ShardOutage {
            shard: 0,
            start_s: 0.0,
            duration_s: 5.0,
        });
        let front = SasFront::with_faults(test_server(), plan, 7);

        let threshold = p.breaker.failure_threshold;
        for i in 0..threshold {
            assert!(
                matches!(front.admit(0, 0.01 * f64::from(i)), Admission::Unavailable { .. }),
                "request {i} hits the dead shard"
            );
        }
        let stats = front.shard_stats(0);
        assert_eq!(stats.breaker_trips, 1, "threshold failures trip the breaker");
        assert!(matches!(stats.breaker, BreakerState::Open { .. }));
        assert!(matches!(front.admit(0, 1.0), Admission::Unavailable { .. }), "fails fast open");

        // Past the outage + cooldown the half-open probe succeeds and
        // the shard serves again.
        assert!(matches!(front.admit(0, 10.0), Admission::Serve { .. }));
        assert_eq!(front.shard_stats(0).breaker, BreakerState::Closed);
    }

    #[test]
    fn slow_shard_stretches_latency_then_sheds() {
        let p = FrontProfile { shards: 1, ..FrontProfile::default() };
        let plan = ServerFaultPlan::new(p, Vec::new()).with(ServerFaultEvent::SlowShard {
            shard: 0,
            latency_scale: 5.0,
            start_s: 0.0,
            duration_s: 100.0,
        });
        let front = SasFront::with_faults(test_server(), plan, 7);
        // Sequential arrivals at the healthy service interval: the 5×
        // slowdown builds a backlog until the latency budget sheds.
        let mut sheds = 0;
        let mut max_serve_latency: f64 = 0.0;
        for i in 0..64u32 {
            match front.admit(0, f64::from(i) * p.service_time_s) {
                Admission::Serve { queue_delay_s, service_s, .. } => {
                    max_serve_latency = max_serve_latency.max(queue_delay_s + service_s);
                }
                Admission::Shed { reason, .. } => {
                    assert_eq!(reason, ShedReason::LatencyBudget);
                    sheds += 1;
                }
                Admission::Unavailable { .. } => panic!("slow is not down"),
            }
        }
        assert!(sheds > 0, "sustained slow shard must shed");
        assert!(
            max_serve_latency <= p.shed_latency_s + 5.0 * p.service_time_s + 1e-12,
            "served latency stays within budget + one degraded service: {max_serve_latency}"
        );
    }

    #[test]
    fn eviction_storm_slows_every_shard() {
        let p = profile();
        let plan = ServerFaultPlan::new(p, Vec::new())
            .with(ServerFaultEvent::StoreEvictionStorm { start_s: 0.0, duration_s: 100.0 });
        let front = SasFront::with_faults(test_server(), plan, 7);
        match front.admit(0, 0.0) {
            Admission::Serve { service_s, .. } => {
                assert!((service_s - p.service_time_s * p.storm_miss_scale).abs() < 1e-12)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observed_front_counts_requests() {
        let obs = evr_obs::Observer::enabled();
        let p = profile();
        let mut front = SasFront::new(test_server(), p, 7);
        front.set_observer(&obs);
        let requests = storm(front.server(), &p, 4.0, 128);
        let report = front.serve_batch(&requests, 2);
        front.mirror_gauges(&obs);
        use evr_obs::names;
        assert_eq!(obs.counter(names::SAS_FRONT_REQUESTS).get(), 128);
        assert_eq!(obs.counter(names::SAS_FRONT_SERVED).get(), report.served);
        assert_eq!(obs.counter(names::SAS_FRONT_SHED).get(), report.shed);
        assert_eq!(obs.counter(names::SAS_FRONT_COALESCED).get(), report.coalesced);
        assert_eq!(
            obs.gauge(names::SAS_FRONT_PEAK_QUEUE_DEPTH).get(),
            f64::from(report.peak_queue_depth)
        );
        assert!(report.answered_latencies_s().windows(2).all(|w| w[0] <= w[1]));
    }

    fn tiled_server() -> SasServer {
        let mut s = test_server();
        let tiles = crate::tiles::ingest_tiled_rates_with(
            &scene_for(VideoId::Rhino),
            &SasConfig::tiny_for_tests(),
            1.0,
            0,
        );
        s.attach_tiles(Arc::new(tiles));
        s
    }

    /// [`storm`] with every third request turned into a tile request
    /// (cycling over three segments, every tile and every rung).
    fn mixed_storm(
        server: &SasServer,
        p: &FrontProfile,
        factor: f64,
        n: usize,
    ) -> Vec<FrontRequest> {
        let tiles = server.tiles().expect("tiled server");
        let (grid_len, rungs) = (tiles.grid().len(), tiles.rung_count());
        let fov = storm(server, p, factor, n);
        fov.into_iter()
            .enumerate()
            .map(|(i, r)| {
                if i % 3 != 0 {
                    return r;
                }
                let k = i / 3;
                let request =
                    Request::Tile { segment: (k % 3) as u32, tile: k % grid_len, rung: k % rungs };
                FrontRequest { request, ..r }
            })
            .collect()
    }

    #[test]
    fn tile_batches_serve_and_coalesce_like_fov_batches() {
        let front = SasFront::new(tiled_server(), profile(), 7);
        let rungs = front.server().tiles().unwrap().rung_count();
        // Four users want the same tile at the same rung, well under
        // capacity: one build, three coalesced reuses.
        let request = Request::Tile { segment: 0, tile: 1, rung: rungs - 1 };
        let requests: Vec<FrontRequest> =
            (0..4).map(|i| FrontRequest { user: i, request, arrival_s: i as f64 * 0.1 }).collect();
        let report = front.serve_batch(&requests, 4);
        assert_eq!(report.served, 4);
        assert_eq!(report.coalesced, 3);
        assert!(report.outcomes.iter().all(|o| matches!(
            &o.disposition,
            Disposition::Served { payload: Payload::Tile(t), wire_bytes, .. }
                if t.wire_bytes > 0 && *wire_bytes == t.wire_bytes
        )));
    }

    #[test]
    fn overloaded_tile_batches_shed_identically_across_worker_counts() {
        let p = profile();
        let tiles = tiled_server();
        let grid_len = tiles.tiles().unwrap().grid().len();
        let capacity_rps = p.shard_capacity_rps() * f64::from(p.shards);
        let dt = 1.0 / (capacity_rps * 4.0);
        let requests: Vec<FrontRequest> = (0..512)
            .map(|i| FrontRequest {
                user: i as u64,
                request: Request::Tile { segment: (i % 3) as u32, tile: i % grid_len, rung: 0 },
                arrival_s: i as f64 * dt,
            })
            .collect();
        let reports: Vec<BatchReport> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let front = SasFront::new(tiled_server(), p, 7);
                front.serve_batch(&requests, workers)
            })
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 workers");
        assert_eq!(reports[0], reports[2], "1 vs 8 workers");
        let r = &reports[0];
        assert!(r.shed > 0 && r.served > 0);
        for o in &r.outcomes {
            if let Disposition::Shed { wire_bytes, .. } = &o.disposition {
                assert!(*wire_bytes > 0, "shed tiles still answer with the coarsest rung");
            }
        }
    }

    #[test]
    fn tile_requests_without_a_catalog_are_not_found() {
        let front = SasFront::new(test_server(), profile(), 7);
        let request = Request::Tile { segment: 0, tile: 0, rung: 0 };
        let report = front.serve_batch(&[FrontRequest { user: 0, request, arrival_s: 0.0 }], 1);
        assert_eq!(report.not_found, 1);
        assert!(matches!(
            report.outcomes[0].disposition,
            Disposition::NotFound { error: SasError::UnknownTile { segment: 0, tile: 0 } }
        ));
    }

    #[test]
    fn mixed_batches_are_worker_invariant_and_match_direct_fetches() {
        let p = profile();
        let requests = mixed_storm(&tiled_server(), &p, 4.0, 512);
        let reports: Vec<BatchReport> = [1usize, 2, 8]
            .iter()
            .map(|&workers| SasFront::new(tiled_server(), p, 7).serve_batch(&requests, workers))
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 workers");
        assert_eq!(reports[0], reports[2], "1 vs 8 workers");

        let r = &reports[0];
        let direct = tiled_server();
        // A shed FOV request gets the low-rung original, a shed tile the
        // coarsest rung of that tile.
        let scaled = |bytes: u64| (bytes as f64 * p.shed_byte_scale).round() as u64;
        let mut shed = (0, 0);
        for o in &r.outcomes {
            let Disposition::Shed { wire_bytes, .. } = o.disposition else { continue };
            match o.request.request {
                Request::Fov { segment, .. } => {
                    assert_eq!(
                        wire_bytes,
                        scaled(direct.catalog().original_target_bytes(segment).unwrap())
                    );
                    shed.0 += 1;
                }
                Request::Tile { segment, tile, .. } => {
                    let coarsest = direct.tiles().unwrap().rung(segment, tile, 0).wire_bytes;
                    assert_eq!(wire_bytes, scaled(coarsest));
                    shed.1 += 1;
                }
            }
        }
        assert!(shed.0 > 0 && shed.1 > 0, "4x overload sheds both kinds: {shed:?}");

        let mut seen = std::collections::HashSet::new();
        let (mut fov, mut tile) = (0, 0);
        for o in &r.outcomes {
            let Disposition::Served { payload, wire_bytes, coalesced, .. } = &o.disposition else {
                continue;
            };
            // Coalescing is per request: the first serve of a `Request`
            // builds, every later serve of an equal one reuses it.
            assert_eq!(*coalesced, !seen.insert(o.request.request), "{:?}", o.request);
            match (o.request.request, payload) {
                (Request::Fov { segment, cluster }, Payload::Fov(got)) => {
                    let (want, want_wire) = direct.fetch_fov(segment, cluster).expect("listed");
                    assert_eq!(**got, *want);
                    assert_eq!(*wire_bytes, want_wire);
                    fov += 1;
                }
                (Request::Tile { segment, tile: t, rung }, Payload::Tile(got)) => {
                    let want = direct.fetch_tile(segment, t, rung).expect("in range");
                    assert_eq!(*got, want);
                    assert_eq!(*wire_bytes, want.wire_bytes);
                    tile += 1;
                }
                (request, payload) => panic!("{request:?} served with {payload:?}"),
            }
        }
        assert_eq!(fov + tile, r.served);
        assert!(fov > 0 && tile > 0, "both kinds served: {fov} FOV, {tile} tile");
        assert_eq!(r.coalesced, r.served - seen.len() as u64);
    }

    #[test]
    fn not_found_requests_do_not_count_as_shed() {
        let front = SasFront::new(test_server(), profile(), 7);
        let request = Request::Fov { segment: 999, cluster: 0 };
        let requests = vec![FrontRequest { user: 0, request, arrival_s: 0.0 }];
        let report = front.serve_batch(&requests, 1);
        assert_eq!(report.not_found, 1);
        assert_eq!(report.shed, 0);
        assert!(matches!(
            report.outcomes[0].disposition,
            Disposition::NotFound { error: SasError::UnknownSegment { segment: 999 } }
        ));
    }
}
