//! The sharded, overload-resilient serving front.
//!
//! [`SasServer`] answers one request at a time and assumes it always
//! can. At fleet scale the cloud side needs the machinery real serving
//! tiers have: the key space sharded across independent lanes, bounded
//! per-shard queues with **admission control**, **load shedding** that
//! degrades to a cheap low-rung original response rather than queueing
//! unboundedly, and a per-shard **circuit breaker** so clients stop
//! hammering a dead shard. [`SasFront`] adds exactly that layer on top
//! of an existing server, and doubles as the injection point for the
//! server-side fault vocabulary in `evr-faults`
//! ([`ServerFaultEvent`](evr_faults::ServerFaultEvent): shard outages,
//! slow shards, store eviction storms).
//!
//! Every request crosses the front one way, answered as it arrives like
//! the paper's SAS server (§5.3): [`SasFront::admit`] on the segment it
//! asks for, then, on [`Admission::Serve`], one typed fetch on
//! [`SasFront::server`] — [`SasServer::fetch_fov`],
//! [`SasServer::fetch_fov_rung`], [`SasServer::fetch_fov_upgrade`] or
//! [`SasServer::fetch_tile`]. A tile is one more representation of its
//! segment (as in DASH-SRD), so every kind shares routing, admission and
//! shedding.
//!
//! # Determinism
//!
//! Load is modelled in *simulated* time: each shard keeps a virtual
//! clock `next_free_s`; a request arriving at `t` sees a backlog of
//! `next_free_s - t`, and admission/shedding are pure functions of that
//! backlog and the fault plan. Two fronts that admit the same arrivals
//! in the same order therefore decide identically, and the fetches
//! behind an admission are pure catalog/store reads (DESIGN.md §14).

use parking_lot::RwLock;

use evr_faults::{BreakerState, CircuitBreaker, FrontProfile, ServerFaultPlan};

use crate::server::SasServer;

/// Why the front refused to queue a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's bounded queue is full.
    QueueFull,
    /// Queueing delay would exceed the latency budget.
    LatencyBudget,
}

/// The admission decision for one request ([`SasFront::admit`]).
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
    /// Refused under load; the caller answers with a low-rung response
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

/// Mutable per-shard lane: the virtual clock, the breaker and counters.
/// Touched only by [`SasFront::admit`], each lane behind its own
/// `RwLock` so admissions on different shards, and read-only
/// inspection (stats, gauges), never contend across shards.
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

/// The sharded serving front over one [`SasServer`].
#[derive(Debug)]
pub struct SasFront {
    server: SasServer,
    plan: ServerFaultPlan,
    lanes: Vec<RwLock<ShardLane>>,
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
        SasFront { server, plan, lanes }
    }

    /// The wrapped server, which answers every admitted request.
    pub fn server(&self) -> &SasServer {
        &self.server
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

    /// Forwards `observer` to the wrapped server's instrumentation and
    /// publishes the front's gauges ([`SasFront::mirror_gauges`]).
    pub fn set_observer(&mut self, observer: &evr_obs::Observer) {
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
    /// determinism must admit in a fixed order. A [`Admission::Serve`]
    /// is answered by one typed fetch on [`SasFront::server`].
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
    use crate::server::SasError;
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

    /// `n` deterministic FOV requests `(segment, cluster, arrival_s)` at
    /// `factor`× the front's aggregate capacity, spread over every live
    /// segment.
    fn storm(
        server: &SasServer,
        profile: &FrontProfile,
        factor: f64,
        n: usize,
    ) -> Vec<(u32, usize, f64)> {
        let catalog = server.catalog();
        let streams: Vec<(u32, usize)> = (0..catalog.segment_count())
            .filter_map(|s| catalog.clusters_in_segment(s).first().map(|&c| (s, c)))
            .collect();
        assert!(!streams.is_empty());
        let capacity_rps = profile.shard_capacity_rps() * f64::from(profile.shards);
        let dt = 1.0 / (capacity_rps * factor);
        (0..n)
            .map(|i| {
                let (segment, cluster) = streams[i % streams.len()];
                (segment, cluster, i as f64 * dt)
            })
            .collect()
    }

    /// Admits every request of `requests` in order.
    fn admit_all(front: &SasFront, requests: &[(u32, usize, f64)]) -> Vec<Admission> {
        requests.iter().map(|&(segment, _, t)| front.admit(segment, t)).collect()
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
        for (segment, cluster, t) in storm(front.server(), &profile(), 0.25, 32) {
            let Admission::Serve { shard, queue_delay_s, service_s } = front.admit(segment, t)
            else {
                panic!("a quarter-loaded front admits segment {segment} at {t}");
            };
            assert_eq!(shard, front.shard_of(segment));
            assert!(queue_delay_s + service_s > 0.0);
            let (stream, wire_bytes) = front.server().fetch_fov(segment, cluster).expect("listed");
            assert!(!stream.data.frames.is_empty() && wire_bytes > 0);
        }
    }

    #[test]
    fn overload_sheds_deterministically_with_bounded_queues() {
        let p = profile();
        let server = test_server();
        let mut last_shed_rate = 0.0;
        for factor in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let requests = storm(&server, &p, factor, 512);
            // Admission is stateful by design: each run starts from a
            // fresh front, and two of them must decide identically.
            let front = SasFront::new(server.clone(), p, 7);
            let admissions = admit_all(&front, &requests);
            assert_eq!(
                admissions,
                admit_all(&SasFront::new(server.clone(), p, 7), &requests),
                "{factor}x: fresh fronts admit identically"
            );
            let mut shed = 0;
            for admission in &admissions {
                match *admission {
                    Admission::Serve { queue_delay_s, service_s, .. } => {
                        assert!(
                            queue_delay_s + service_s <= p.shed_latency_s + p.service_time_s,
                            "{factor}x: served latency stays within budget + one service"
                        );
                        assert!(((queue_delay_s / service_s).ceil() as u32) < p.queue_capacity);
                    }
                    Admission::Shed { latency_s, .. } => {
                        assert!(latency_s > 0.0);
                        shed += 1;
                    }
                    Admission::Unavailable { .. } => panic!("a healthy front refuses nothing"),
                }
            }
            assert!(front.peak_queue_depth() <= p.queue_capacity, "queue depth stays bounded");
            let shed_rate = f64::from(shed) / requests.len() as f64;
            assert!(shed_rate >= last_shed_rate, "{factor}x sheds {shed_rate} < {last_shed_rate}");
            last_shed_rate = shed_rate;
        }
        assert!(last_shed_rate > 0.5, "most of an 8x storm is shed: {last_shed_rate}");
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
        let server = test_server();
        // Segment 0's shard is down for the whole storm, so its breaker
        // trips while the other shards queue and shed.
        let dead = p.shard_of(server.catalog().content_id(), 0);
        let plan = ServerFaultPlan::new(p, Vec::new()).with(ServerFaultEvent::ShardOutage {
            shard: dead,
            start_s: 0.0,
            duration_s: 1.0,
        });
        let mut front = SasFront::with_faults(server, plan, 7);
        front.set_observer(&obs);
        let requests = storm(front.server(), &p, 4.0, 128);
        let admissions = admit_all(&front, &requests);
        front.mirror_gauges(&obs);

        let stats: Vec<ShardStats> = (0..p.shards).map(|s| front.shard_stats(s)).collect();
        let count = |f: fn(&ShardStats) -> u64| stats.iter().map(f).sum::<u64>();
        let served = admissions.iter().filter(|a| matches!(a, Admission::Serve { .. })).count();
        assert_eq!(count(|s| s.served + s.shed + s.unavailable), requests.len() as u64);
        assert_eq!(count(|s| s.served), served as u64);
        let trips = count(|s| s.breaker_trips);
        assert!(trips > 0 && front.peak_queue_depth() > 0);

        use evr_obs::names;
        assert_eq!(
            obs.gauge(names::SAS_FRONT_PEAK_QUEUE_DEPTH).get(),
            f64::from(front.peak_queue_depth())
        );
        assert_eq!(obs.gauge(names::SAS_FRONT_BREAKER_TRIPS).get(), trips as f64);
    }

    #[test]
    fn not_found_requests_do_not_count_as_shed() {
        // Admission routes on the segment alone; a missing stream is the
        // typed fetch's client error, never a shed.
        let front = SasFront::new(test_server(), profile(), 7);
        assert!(matches!(front.admit(999, 0.0), Admission::Serve { .. }));
        assert_eq!(
            front.server().fetch_fov(999, 0),
            Err(SasError::UnknownSegment { segment: 999 })
        );
        assert_eq!(front.shard_stats(front.shard_of(999)).shed, 0);
    }
}
