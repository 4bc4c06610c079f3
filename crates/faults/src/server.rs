//! Server-side fault vocabulary and the serving-front load model.
//!
//! Pure data, validate-on-construct, like [`crate::plan::FaultPlan`].
//! A [`ServerFaultPlan`] pairs a [`FrontProfile`] (the front's shard
//! count, service time and admission thresholds) with scheduled
//! degradations — whole-shard outages, slow shards, store eviction
//! storms — all queried as pure functions of `(shard, t)` so both the
//! server-side front (`evr-sas`) and the client-side gate consult the
//! exact same model. See DESIGN.md §14.

use serde::{Deserialize, Serialize};

use crate::breaker::BreakerPolicy;

/// Static capacity/threshold profile of the serving front.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontProfile {
    /// Number of shards the catalog/store key space is hashed over.
    pub shards: u32,
    /// Simulated service time of one FOV request at a healthy shard,
    /// seconds.
    pub service_time_s: f64,
    /// Bounded per-shard queue: depth at or beyond this sheds.
    pub queue_capacity: u32,
    /// Queueing delay beyond which the front sheds even if the queue
    /// has room, seconds.
    pub shed_latency_s: f64,
    /// Extra service-time factor for every request during a
    /// [`ServerFaultEvent::StoreEvictionStorm`] (all reads become store
    /// misses that re-render).
    pub storm_miss_scale: f64,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerPolicy,
}

impl Default for FrontProfile {
    fn default() -> Self {
        FrontProfile {
            shards: 4,
            service_time_s: 0.002,
            queue_capacity: 16,
            shed_latency_s: 0.02,
            storm_miss_scale: 4.0,
            breaker: BreakerPolicy::default(),
        }
    }
}

impl FrontProfile {
    /// Validates the profile's fields.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, any duration is non-finite or
    /// non-positive, or a scale leaves its documented range.
    pub fn validate(&self) {
        assert!(self.shards > 0, "shards must be positive");
        assert!(
            self.service_time_s.is_finite() && self.service_time_s > 0.0,
            "service_time_s must be finite and positive"
        );
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(
            self.shed_latency_s.is_finite() && self.shed_latency_s >= 0.0,
            "shed_latency_s must be finite and non-negative"
        );
        assert!(
            self.storm_miss_scale.is_finite() && self.storm_miss_scale >= 1.0,
            "storm_miss_scale must be finite and at least 1"
        );
        self.breaker.validate();
    }

    /// Requests/s one healthy shard sustains (`1 / service_time_s`).
    pub fn shard_capacity_rps(&self) -> f64 {
        1.0 / self.service_time_s
    }

    /// The shard owning `(content, segment)` — FNV-1a over the two
    /// words, reduced modulo the shard count. This is the single
    /// routing hash; the front and the client gate must agree on it.
    pub fn shard_of(&self, content: u64, segment: u32) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [content, u64::from(segment)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h % u64::from(self.shards)) as u32
    }
}

/// One scheduled server-side degradation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServerFaultEvent {
    /// A whole shard stops answering for a window.
    ShardOutage {
        /// Affected shard index.
        shard: u32,
        /// Window start, seconds.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
    /// A shard keeps answering but every request takes
    /// `latency_scale`× the healthy service time for a window.
    SlowShard {
        /// Affected shard index.
        shard: u32,
        /// Service-time multiplier, at least 1.
        latency_scale: f64,
        /// Window start, seconds.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
    /// The pre-render store thrashes: every read on every shard is a
    /// miss that re-renders, costing `storm_miss_scale`× the healthy
    /// service time for a window.
    StoreEvictionStorm {
        /// Window start, seconds.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
}

impl ServerFaultEvent {
    fn validate(&self, shards: u32) {
        let check_window = |start_s: f64, duration_s: f64| {
            assert!(
                start_s.is_finite() && start_s >= 0.0,
                "event start must be finite and non-negative"
            );
            assert!(
                duration_s.is_finite() && duration_s > 0.0,
                "event duration must be finite and positive"
            );
        };
        match *self {
            ServerFaultEvent::ShardOutage { shard, start_s, duration_s } => {
                assert!(shard < shards, "shard {shard} out of range (shards = {shards})");
                check_window(start_s, duration_s);
            }
            ServerFaultEvent::SlowShard { shard, latency_scale, start_s, duration_s } => {
                assert!(shard < shards, "shard {shard} out of range (shards = {shards})");
                assert!(
                    latency_scale.is_finite() && latency_scale >= 1.0,
                    "latency_scale must be finite and at least 1"
                );
                check_window(start_s, duration_s);
            }
            ServerFaultEvent::StoreEvictionStorm { start_s, duration_s } => {
                check_window(start_s, duration_s);
            }
        }
    }
}

fn in_window(t: f64, start_s: f64, duration_s: f64) -> bool {
    t >= start_s && t < start_s + duration_s
}

/// The server-side fault plan: a front profile plus scheduled
/// degradations, all queryable as pure functions of `(shard, t)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerFaultPlan {
    profile: FrontProfile,
    events: Vec<ServerFaultEvent>,
}

impl ServerFaultPlan {
    /// Builds a plan; every event is validated against the profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile or any event fails validation.
    pub fn new(profile: FrontProfile, events: Vec<ServerFaultEvent>) -> Self {
        profile.validate();
        for e in &events {
            e.validate(profile.shards);
        }
        ServerFaultPlan { profile, events }
    }

    /// A healthy front under the default profile (no scheduled faults).
    pub fn healthy() -> Self {
        ServerFaultPlan::new(FrontProfile::default(), Vec::new())
    }

    /// Adds one event (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the event fails validation.
    pub fn with(mut self, event: ServerFaultEvent) -> Self {
        event.validate(self.profile.shards);
        self.events.push(event);
        self
    }

    /// The front profile.
    pub fn profile(&self) -> &FrontProfile {
        &self.profile
    }

    /// The scheduled events.
    pub fn events(&self) -> &[ServerFaultEvent] {
        &self.events
    }

    /// Whether `shard` is inside an outage window at `t`.
    pub fn shard_down_at(&self, shard: u32, t: f64) -> bool {
        self.events.iter().any(|e| match *e {
            ServerFaultEvent::ShardOutage { shard: s, start_s, duration_s } => {
                s == shard && in_window(t, start_s, duration_s)
            }
            _ => false,
        })
    }

    /// Combined service-time multiplier for `shard` at `t`: the product
    /// of every active `SlowShard` scale and the storm miss scale.
    pub fn latency_scale(&self, shard: u32, t: f64) -> f64 {
        let mut scale = 1.0;
        for e in &self.events {
            match *e {
                ServerFaultEvent::SlowShard { shard: s, latency_scale, start_s, duration_s }
                    if s == shard && in_window(t, start_s, duration_s) =>
                {
                    scale *= latency_scale;
                }
                ServerFaultEvent::StoreEvictionStorm { start_s, duration_s }
                    if in_window(t, start_s, duration_s) =>
                {
                    scale *= self.profile.storm_miss_scale;
                }
                _ => {}
            }
        }
        scale
    }

    /// Whether an eviction storm is active at `t`.
    pub fn storm_at(&self, t: f64) -> bool {
        self.events.iter().any(|e| match *e {
            ServerFaultEvent::StoreEvictionStorm { start_s, duration_s } => {
                in_window(t, start_s, duration_s)
            }
            _ => false,
        })
    }

    /// Effective simulated service time of one request on `shard` at
    /// `t` (healthy service time scaled by every active degradation).
    pub fn service_time_at(&self, shard: u32, t: f64) -> f64 {
        self.profile.service_time_s * self.latency_scale(shard, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_hash_is_stable_and_in_range() {
        let p = FrontProfile { shards: 8, ..FrontProfile::default() };
        let mut seen = [0u32; 8];
        for seg in 0..256 {
            let s = p.shard_of(0xfeed, seg);
            assert!(s < 8);
            assert_eq!(s, p.shard_of(0xfeed, seg), "hash must be pure");
            seen[s as usize] += 1;
        }
        // FNV spreads 256 keys over 8 shards without collapsing onto a
        // few; exact counts are pinned by determinism anyway.
        assert!(seen.iter().all(|&c| c > 8), "degenerate spread: {seen:?}");
        // Different content, generally different shard for some segment.
        assert!((0..64).any(|seg| p.shard_of(1, seg) != p.shard_of(2, seg)));
    }

    #[test]
    fn windows_answer_as_half_open_intervals() {
        let plan = ServerFaultPlan::new(
            FrontProfile::default(),
            vec![
                ServerFaultEvent::ShardOutage { shard: 1, start_s: 2.0, duration_s: 1.0 },
                ServerFaultEvent::SlowShard {
                    shard: 0,
                    latency_scale: 3.0,
                    start_s: 1.0,
                    duration_s: 2.0,
                },
                ServerFaultEvent::StoreEvictionStorm { start_s: 2.5, duration_s: 0.5 },
            ],
        );
        assert!(!plan.shard_down_at(1, 1.9));
        assert!(plan.shard_down_at(1, 2.0));
        assert!(plan.shard_down_at(1, 2.9));
        assert!(!plan.shard_down_at(1, 3.0));
        assert!(!plan.shard_down_at(0, 2.5));

        assert!((plan.latency_scale(0, 1.5) - 3.0).abs() < 1e-12);
        assert!((plan.latency_scale(0, 2.6) - 12.0).abs() < 1e-12, "slow × storm compound");
        assert!((plan.latency_scale(1, 2.6) - 4.0).abs() < 1e-12, "storm hits every shard");
        assert!((plan.latency_scale(0, 0.5) - 1.0).abs() < 1e-12);

        assert!(plan.storm_at(2.7));
        assert!(!plan.storm_at(3.1));
        assert!(
            (plan.service_time_at(0, 1.5) - 0.006).abs() < 1e-12,
            "service time scales with the slow window"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_is_rejected() {
        let _ = ServerFaultPlan::healthy().with(ServerFaultEvent::ShardOutage {
            shard: 4,
            start_s: 0.0,
            duration_s: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "latency_scale")]
    fn sub_unit_latency_scale_is_rejected() {
        let _ = ServerFaultPlan::healthy().with(ServerFaultEvent::SlowShard {
            shard: 0,
            latency_scale: 0.5,
            start_s: 0.0,
            duration_s: 1.0,
        });
    }
}
