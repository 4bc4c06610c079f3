//! The shared FOV pre-render store.
//!
//! The paper's SAS cloud pre-renders one FOV video per object cluster so
//! that *many* concurrent viewers reuse the same artifact (§7.1) — the
//! whole point of doing semantics work server-side is that its cost
//! amortises across users. This store is that artifact cache: an
//! `Arc`-shared, byte-budgeted map from [`PrerenderKey`] —
//! `(content, segment, cluster, rung)` — to the encoded FOV segment plus
//! its orientation metadata.
//!
//! Two producers feed it and one consumer drains it:
//!
//! * ingest inserts (or reuses) each cluster's pre-render, so repeated
//!   ingests of the same content skip the render+encode entirely;
//! * a serving [`crate::SasServer`] (each owns a store) publishes
//!   segments on first request and hands out `Arc` clones after that.
//!
//! The design mirrors `evr-projection`'s `SamplingMapCache` (the LUT
//! store DESIGN.md §11 describes): FIFO eviction by insertion order
//! under a byte budget that always keeps the newest entry, entries
//! shared out as `Arc`s so eviction never invalidates a reader, and a
//! poison-recovering mutex so a panicking thread elsewhere cannot wedge
//! the store. Determinism: the store only ever returns byte-identical
//! copies of what a store-less path would have computed — pre-renders
//! are pure functions of their key once the content fingerprint pins
//! the scene, duration and ingest configuration — so serving from it is
//! bit-exact (pinned by the `ingest_bench` parity check).
//!
//! Lower ladder rungs may additionally be **delta-resident**
//! ([`FovPrerenderStore::insert_delta`]): held as sparse coefficient
//! residuals against the cluster's full top rung and reconstructed
//! bit-exactly on lookup ([`evr_video::delta`], DESIGN.md §16). Whenever
//! the delta is not strictly smaller the full encoding is kept, so
//! delta residency only ever shrinks `resident_bytes`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use evr_projection::FovFrameMeta;
use evr_video::codec::EncodedSegment;
use evr_video::delta::DeltaSegment;

use crate::config::SasConfig;

/// Identifies one pre-rendered FOV segment of one piece of content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrerenderKey {
    /// Content fingerprint from [`content_fingerprint`]: scene, duration
    /// and ingest configuration.
    pub content: u64,
    /// Temporal segment index.
    pub segment: u32,
    /// Cluster index within the segment.
    pub cluster: usize,
    /// Quality rung — the FOV quantiser the segment was encoded at.
    pub rung: u8,
}

/// A pre-rendered FOV segment: the encoded video and its per-frame
/// orientation metadata, exactly as a catalog stores them.
#[derive(Debug, Clone, PartialEq)]
pub struct PrerenderedFov {
    /// Encoded FOV video segment.
    pub data: EncodedSegment,
    /// Per-frame orientation metadata.
    pub meta: Vec<FovFrameMeta>,
}

impl PrerenderedFov {
    /// Budget cost: encoded bytes plus the orientation records at their
    /// actual in-memory size — derived, not hard-coded, so the accounting
    /// cannot silently drift when [`FovFrameMeta`] grows a field.
    pub fn cost_bytes(&self) -> u64 {
        self.data.bytes() + (self.meta.len() * std::mem::size_of::<FovFrameMeta>()) as u64
    }
}

/// Hit/miss/eviction counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to keep the byte budget.
    pub evictions: u64,
    /// Builds avoided by waiting on another thread's in-flight build of
    /// the same key instead of running the builder again.
    pub coalesced: u64,
    /// Lookups served by reconstructing a delta-resident entry from its
    /// reference rung (each is also counted as a hit). An insert onto a
    /// resident key is a write, not a lookup, and counts in no lookup
    /// counter even when it hands back a reconstruction.
    pub reconstructs: u64,
}

impl StoreStats {
    /// Fraction of lookups answered from the store.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One key's in-flight build: `true` once the builder finished (or
/// unwound) and waiters should re-check the map.
type InflightSignal = Arc<(Mutex<bool>, Condvar)>;

/// How one entry is held at rest.
#[derive(Debug)]
enum Resident {
    /// Independently encoded — shared out as the same `Arc` on every hit.
    Full(Arc<PrerenderedFov>),
    /// A lower rung held as sparse residuals against a full reference
    /// rung. The reference is pinned by `Arc`, so evicting the reference
    /// *key* never invalidates reconstruction (the bytes linger until the
    /// last delta referring to them goes too — the accounting undercount
    /// this can cause after a reference eviction is accepted; FIFO order
    /// makes it rare, since references are inserted before their deltas).
    Delta { repr: Arc<DeltaSegment>, meta: Vec<FovFrameMeta>, reference: Arc<PrerenderedFov> },
}

impl Resident {
    /// Honest budget cost of what this entry keeps resident itself.
    fn cost_bytes(&self) -> u64 {
        match self {
            Resident::Full(fov) => fov.cost_bytes(),
            Resident::Delta { repr, meta, .. } => {
                repr.bytes() + (meta.len() * std::mem::size_of::<FovFrameMeta>()) as u64
            }
        }
    }
}

/// A resident entry cloned out of the lock, ready to materialise into a
/// [`PrerenderedFov`] without holding the store mutex.
enum Snapshot {
    Ready(Arc<PrerenderedFov>),
    Reconstruct { repr: Arc<DeltaSegment>, meta: Vec<FovFrameMeta>, reference: Arc<PrerenderedFov> },
}

impl Snapshot {
    fn of(entry: &Resident) -> Snapshot {
        match entry {
            Resident::Full(fov) => Snapshot::Ready(Arc::clone(fov)),
            Resident::Delta { repr, meta, reference } => Snapshot::Reconstruct {
                repr: Arc::clone(repr),
                meta: meta.clone(),
                reference: Arc::clone(reference),
            },
        }
    }

    fn is_reconstruct(&self) -> bool {
        matches!(self, Snapshot::Reconstruct { .. })
    }

    /// Materialises the full segment; bit-exact for delta entries by
    /// [`DeltaSegment::reconstruct`]'s contract.
    fn materialise(self) -> Arc<PrerenderedFov> {
        match self {
            Snapshot::Ready(fov) => fov,
            Snapshot::Reconstruct { repr, meta, reference } => {
                Arc::new(PrerenderedFov { data: repr.reconstruct(&reference.data), meta })
            }
        }
    }
}

#[derive(Debug)]
struct StoreState {
    entries: HashMap<PrerenderKey, Resident>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<PrerenderKey>,
    /// Keys some thread is currently building outside the lock; a
    /// second caller for the same key waits on the signal instead of
    /// duplicating the (expensive) build.
    inflight: HashMap<PrerenderKey, InflightSignal>,
    total_bytes: u64,
    capacity_bytes: u64,
    stats: StoreStats,
}

impl StoreState {
    /// Inserts under the budget. If `key` is already resident (two
    /// threads raced on the same segment), the resident entry wins so
    /// every consumer shares one allocation. Returns what the caller
    /// hands out, to be materialised once it has released the lock.
    fn insert(&mut self, key: PrerenderKey, fov: Arc<PrerenderedFov>) -> Snapshot {
        if let Some(existing) = self.entries.get(&key) {
            return Snapshot::of(existing);
        }
        self.admit(key, Resident::Full(Arc::clone(&fov)));
        Snapshot::Ready(fov)
    }

    /// Admits a new entry (the key must not be resident) and evicts
    /// oldest-first to keep the budget, always keeping the newest entry
    /// even if it alone exceeds it — a usable store beats a strict one.
    fn admit(&mut self, key: PrerenderKey, entry: Resident) {
        debug_assert!(!self.entries.contains_key(&key));
        self.total_bytes += entry.cost_bytes();
        self.entries.insert(key, entry);
        self.order.push_back(key);
        while self.total_bytes > self.capacity_bytes && self.order.len() > 1 {
            if let Some(old) = self.order.pop_front() {
                if let Some(dropped) = self.entries.remove(&old) {
                    self.total_bytes -= dropped.cost_bytes();
                    self.stats.evictions += 1;
                }
            }
        }
    }
}

/// An `Arc`-shared, byte-budgeted store of pre-rendered FOV segments.
///
/// Cloning is cheap and shares the underlying store; [`shared`] returns
/// the process-wide instance every `EvrSystem` uses by default.
///
/// [`shared`]: FovPrerenderStore::shared
#[derive(Debug, Clone)]
pub struct FovPrerenderStore {
    state: Arc<Mutex<StoreState>>,
}

impl Default for FovPrerenderStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FovPrerenderStore {
    /// Default byte budget: 64 MiB of encoded FOV segments — hundreds of
    /// test-scale segments, a sensible slice of a real node's memory.
    pub const DEFAULT_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

    /// A store with the default budget.
    pub fn new() -> Self {
        Self::with_budget(Self::DEFAULT_CAPACITY_BYTES)
    }

    /// A store keeping at most `capacity_bytes` of pre-renders (clamped
    /// to at least one byte; the newest entry is always kept regardless).
    pub fn with_budget(capacity_bytes: u64) -> Self {
        FovPrerenderStore {
            state: Arc::new(Mutex::new(StoreState {
                entries: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashMap::new(),
                total_bytes: 0,
                capacity_bytes: capacity_bytes.max(1),
                stats: StoreStats::default(),
            })),
        }
    }

    /// The process-wide store (one per process, like
    /// `SamplingMapCache::shared`).
    pub fn shared() -> &'static FovPrerenderStore {
        static SHARED: OnceLock<FovPrerenderStore> = OnceLock::new();
        SHARED.get_or_init(FovPrerenderStore::new)
    }

    /// The store never holds a lock across user code, so a poisoned
    /// mutex only means another thread panicked mid-update of counters
    /// or the map — both stay structurally valid; recover and continue.
    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a pre-render, counting a hit or miss. Delta-resident
    /// entries are reconstructed (outside the lock) into the bit-exact
    /// full segment, counted in [`StoreStats::reconstructs`].
    pub fn get(&self, key: &PrerenderKey) -> Option<Arc<PrerenderedFov>> {
        let snap = {
            let mut state = self.lock();
            match state.entries.get(key).map(Snapshot::of) {
                Some(snap) => {
                    state.stats.hits += 1;
                    if snap.is_reconstruct() {
                        state.stats.reconstructs += 1;
                    }
                    snap
                }
                None => {
                    state.stats.misses += 1;
                    return None;
                }
            }
        };
        Some(snap.materialise())
    }

    /// Looks up a pre-render, building and inserting it on a miss. The
    /// build runs *outside* the lock, so concurrent ingest workers never
    /// serialise on each other's render. Concurrent callers for the
    /// *same* key coalesce: the first registers an in-flight marker and
    /// builds; the others wait on it and reuse the resident entry
    /// (counted in [`StoreStats::coalesced`]) instead of duplicating
    /// the expensive render. If the builder panics, the marker is
    /// removed on unwind and one waiter takes over the build.
    pub fn get_or_insert_with(
        &self,
        key: PrerenderKey,
        build: impl FnOnce() -> PrerenderedFov,
    ) -> Arc<PrerenderedFov> {
        // Whether this call already counted its probe outcome: one
        // logical lookup is at most one miss *or* one coalesced wait,
        // even when a panicked builder makes a waiter loop back and take
        // over the build (which previously double-counted a miss on top
        // of the coalesced wait).
        let mut counted = false;
        loop {
            let waiter: Option<InflightSignal> = {
                let mut state = self.lock();
                if let Some(snap) = state.entries.get(&key).map(Snapshot::of) {
                    state.stats.hits += 1;
                    if snap.is_reconstruct() {
                        state.stats.reconstructs += 1;
                    }
                    drop(state);
                    return snap.materialise();
                }
                match state.inflight.get(&key).map(Arc::clone) {
                    Some(signal) => {
                        if !counted {
                            state.stats.coalesced += 1;
                            counted = true;
                        }
                        Some(signal)
                    }
                    None => {
                        if !counted {
                            state.stats.misses += 1;
                            counted = true;
                        }
                        state.inflight.insert(key, Arc::new((Mutex::new(false), Condvar::new())));
                        None
                    }
                }
            };
            match waiter {
                Some(signal) => {
                    let (done, cv) = &*signal;
                    let mut finished = done.lock().unwrap_or_else(|e| e.into_inner());
                    while !*finished {
                        finished = cv.wait(finished).unwrap_or_else(|e| e.into_inner());
                    }
                    // Builder finished (or unwound): loop and re-check.
                }
                None => {
                    // This thread owns the build. The guard clears the
                    // marker and wakes waiters even if `build` panics,
                    // so nobody waits forever on a dead builder.
                    let _guard = InflightGuard { store: self, key };
                    let built = Arc::new(build());
                    let snap = self.lock().insert(key, built);
                    return snap.materialise();
                }
            }
        }
    }

    /// Inserts an already-built pre-render, returning the resident copy
    /// (the existing one if another thread got there first, rebuilt
    /// outside the lock if it is delta-resident).
    pub fn insert(&self, key: PrerenderKey, fov: PrerenderedFov) -> Arc<PrerenderedFov> {
        let snap = self.lock().insert(key, Arc::new(fov));
        snap.materialise()
    }

    /// Inserts a lower rung as a delta against the resident full rung at
    /// `reference`, falling back to a full insert whenever the delta is
    /// not strictly smaller ([`DeltaSegment::encode_if_smaller`]), the
    /// reference is absent, or the reference is itself delta-resident
    /// (deltas only chain one level deep, so reconstruction is a single
    /// sparse merge). Returns whether the delta representation won.
    ///
    /// The encode runs outside the lock; if another thread races the same
    /// key in meanwhile, the resident entry wins, as with [`insert`].
    ///
    /// [`insert`]: FovPrerenderStore::insert
    pub fn insert_delta(
        &self,
        key: PrerenderKey,
        fov: PrerenderedFov,
        reference: PrerenderKey,
    ) -> bool {
        let reference_arc = {
            let state = self.lock();
            match state.entries.get(&key) {
                Some(existing) => return matches!(existing, Resident::Delta { .. }),
                None => match state.entries.get(&reference) {
                    Some(Resident::Full(fov)) => Some(Arc::clone(fov)),
                    _ => None,
                },
            }
        };
        let entry = match reference_arc
            .as_ref()
            .and_then(|r| DeltaSegment::encode_if_smaller(&fov.data, &r.data))
        {
            Some(delta) => Resident::Delta {
                repr: Arc::new(delta),
                meta: fov.meta,
                reference: reference_arc.expect("delta implies a reference"),
            },
            None => Resident::Full(Arc::new(fov)),
        };
        let won = matches!(entry, Resident::Delta { .. });
        let mut state = self.lock();
        match state.entries.get(&key) {
            Some(existing) => matches!(existing, Resident::Delta { .. }),
            None => {
                state.admit(key, entry);
                won
            }
        }
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().total_bytes
    }

    /// Number of resident pre-renders.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Number of resident pre-renders held as deltas.
    pub fn delta_entries(&self) -> usize {
        self.lock().entries.values().filter(|e| matches!(e, Resident::Delta { .. })).count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the byte accounting (counters keep
    /// accumulating). Outstanding `Arc`s stay valid.
    pub fn clear(&self) {
        let mut state = self.lock();
        state.entries.clear();
        state.order.clear();
        state.total_bytes = 0;
    }

    /// Mirrors the store's cumulative counters and residency into
    /// `observer` as `evr_sas_prerender_*` gauges. The store is the
    /// source of truth (many ingests and servers share one store), so
    /// mirroring is idempotent — call it whenever a fresh snapshot is
    /// wanted.
    pub fn mirror(&self, observer: &evr_obs::Observer) {
        if !observer.is_enabled() {
            return;
        }
        use evr_obs::names;
        let (stats, bytes, entries, deltas) = {
            let state = self.lock();
            let deltas =
                state.entries.values().filter(|e| matches!(e, Resident::Delta { .. })).count();
            (state.stats, state.total_bytes, state.entries.len(), deltas)
        };
        observer.gauge(names::SAS_PRERENDER_HITS).set(stats.hits as f64);
        observer.gauge(names::SAS_PRERENDER_MISSES).set(stats.misses as f64);
        observer.gauge(names::SAS_PRERENDER_EVICTIONS).set(stats.evictions as f64);
        observer.gauge(names::SAS_PRERENDER_RESIDENT_BYTES).set(bytes as f64);
        observer.gauge(names::SAS_PRERENDER_ENTRIES).set(entries as f64);
        observer.gauge(names::SAS_PRERENDER_COALESCED).set(stats.coalesced as f64);
        observer.gauge(names::SAS_PRERENDER_RECONSTRUCTS).set(stats.reconstructs as f64);
        observer.gauge(names::SAS_PRERENDER_DELTA_ENTRIES).set(deltas as f64);
    }
}

/// Clears one key's in-flight marker and wakes its waiters, on both the
/// normal path and unwind — a panicking builder must never strand the
/// threads coalesced behind it.
struct InflightGuard<'a> {
    store: &'a FovPrerenderStore,
    key: PrerenderKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let signal = self.store.lock().inflight.remove(&self.key);
        if let Some(signal) = signal {
            let (done, cv) = &*signal;
            *done.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        }
    }
}

/// Fingerprints the inputs a pre-render is a pure function of: the scene
/// (scenes are static per name), the frame count actually ingested and
/// every knob of the ingest configuration (detector seed and noise,
/// cluster and codec settings — `Debug` covers all fields, so a new knob
/// can never silently alias two different pre-renders). FNV-1a, stable
/// across runs and platforms.
pub fn content_fingerprint(scene_name: &str, total_frames: u64, config: &SasConfig) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(scene_name.as_bytes());
    eat(&total_frames.to_le_bytes());
    eat(format!("{config:?}").as_bytes());
    hash
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests race concurrent store callers on purpose")]
mod tests {
    use super::*;
    use evr_math::{EulerAngles, Radians};

    fn fov(frames: usize, fill: u64) -> PrerenderedFov {
        use evr_projection::pixel::{ImageBuffer, Rgb};
        use evr_video::codec::{CodecConfig, Encoder};
        let mut enc = Encoder::new(CodecConfig::new(frames as u32, 20));
        enc.force_intra();
        let shade = (fill % 251) as u8;
        let img =
            ImageBuffer::from_fn(16, 8, |x, y| Rgb::new(shade, (x * 16) as u8, (y * 32) as u8));
        let encoded: Vec<_> = (0..frames).map(|_| enc.encode_frame(&img)).collect();
        let orientation = EulerAngles::new(Radians(0.0), Radians(0.0), Radians(0.0));
        let spec = evr_projection::FovSpec::from_degrees(90.0, 90.0);
        PrerenderedFov {
            data: EncodedSegment { start_index: 0, frames: encoded },
            meta: vec![FovFrameMeta::new(orientation, spec); frames],
        }
    }

    fn key(segment: u32) -> PrerenderKey {
        PrerenderKey { content: 7, segment, cluster: 0, rung: 15 }
    }

    #[test]
    fn get_or_insert_builds_once_and_hits_after() {
        let store = FovPrerenderStore::new();
        let mut builds = 0;
        let a = store.get_or_insert_with(key(0), || {
            builds += 1;
            fov(4, 1)
        });
        let b = store.get_or_insert_with(key(0), || {
            builds += 1;
            fov(4, 1)
        });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1); // only the first call's failed probe
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn eviction_keeps_the_budget_and_the_newest_entry() {
        let one = fov(4, 1).cost_bytes();
        let store = FovPrerenderStore::with_budget(one * 2);
        for seg in 0..5 {
            store.insert(key(seg), fov(4, seg as u64));
        }
        assert!(store.resident_bytes() <= one * 2, "{} > {}", store.resident_bytes(), one * 2);
        assert!(store.get(&key(4)).is_some(), "newest entry must survive");
        assert!(store.get(&key(0)).is_none(), "oldest entry must be evicted");
        assert!(store.stats().evictions >= 3);
    }

    #[test]
    fn an_oversized_entry_is_still_kept() {
        let store = FovPrerenderStore::with_budget(1);
        store.insert(key(0), fov(4, 9));
        assert_eq!(store.len(), 1);
        assert!(store.get(&key(0)).is_some());
    }

    #[test]
    fn racing_inserts_share_the_resident_copy() {
        let store = FovPrerenderStore::new();
        let first = store.insert(key(1), fov(4, 2));
        let second = store.insert(key(1), fov(4, 2));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn clones_share_state_and_shared_is_one_instance() {
        let store = FovPrerenderStore::new();
        let clone = store.clone();
        store.insert(key(2), fov(4, 3));
        assert_eq!(clone.len(), 1);
        assert!(Arc::ptr_eq(&store.state, &clone.state));
        assert!(std::ptr::eq(FovPrerenderStore::shared(), FovPrerenderStore::shared()));
    }

    #[test]
    fn clear_resets_bytes_but_keeps_counters() {
        let store = FovPrerenderStore::new();
        store.insert(key(3), fov(4, 4));
        let _ = store.get(&key(3));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn concurrent_identical_builds_coalesce_into_one() {
        use std::sync::mpsc;
        let store = FovPrerenderStore::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let builder = {
            let store = store.clone();
            std::thread::spawn(move || {
                store.get_or_insert_with(key(0), move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap(); // hold the build open
                    fov(4, 1)
                })
            })
        };
        entered_rx.recv().unwrap(); // builder is inside build()

        let waiter = {
            let store = store.clone();
            std::thread::spawn(move || {
                store.get_or_insert_with(key(0), || panic!("second build must coalesce"))
            })
        };
        // The waiter registers as coalesced *before* blocking; once the
        // counter ticks we know it is parked behind the in-flight build.
        while store.stats().coalesced == 0 {
            std::thread::yield_now();
        }

        release_tx.send(()).unwrap();
        let a = builder.join().unwrap();
        let b = waiter.join().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both callers must share the one build");
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "only the builder missed");
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.hits, 1, "the waiter re-checked into a hit");
    }

    #[test]
    fn panicking_builder_does_not_strand_waiters() {
        let store = FovPrerenderStore::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_insert_with(key(0), || panic!("builder died"))
        }));
        assert!(result.is_err());
        // The in-flight marker was cleared on unwind: a fresh caller
        // becomes the builder instead of deadlocking.
        let rebuilt = store.get_or_insert_with(key(0), || fov(4, 1));
        assert_eq!(rebuilt.meta.len(), 4);
        assert_eq!(store.len(), 1);
        // Two logical lookups happened: the panicked build and the
        // successful rebuild — one counted miss each, nothing coalesced.
        let stats = store.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn waiter_taking_over_a_panicked_build_counts_one_coalesced_no_miss() {
        use std::sync::mpsc;
        let store = FovPrerenderStore::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let builder = {
            let store = store.clone();
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.get_or_insert_with(key(0), move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap(); // hold the build open
                        panic!("builder died mid-build")
                    })
                }))
            })
        };
        entered_rx.recv().unwrap(); // builder is inside build()

        let waiter = {
            let store = store.clone();
            std::thread::spawn(move || store.get_or_insert_with(key(0), || fov(4, 1)))
        };
        // The waiter is parked behind the in-flight build once the
        // coalesced counter ticks.
        while store.stats().coalesced == 0 {
            std::thread::yield_now();
        }

        // Let the builder panic; the waiter loops back, takes over the
        // build and succeeds.
        release_tx.send(()).unwrap();
        assert!(builder.join().unwrap().is_err());
        let rebuilt = waiter.join().unwrap();
        assert_eq!(rebuilt.meta.len(), 4);
        assert_eq!(store.len(), 1);

        // One logical lookup per caller: the panicked builder's miss and
        // the waiter's coalesced wait. The waiter's takeover must NOT
        // count a second miss (the pre-fix double count), and waking
        // repeatedly must not inflate `coalesced` either.
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "takeover must not re-count a miss");
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn cost_bytes_tracks_the_actual_meta_record_size() {
        // The budget accounting derives the per-record cost from the
        // actual struct, so growing `FovFrameMeta` can never silently
        // drift the accounting (the old code hard-coded 32 bytes).
        let f = fov(4, 1);
        let record = std::mem::size_of::<FovFrameMeta>() as u64;
        assert_eq!(f.cost_bytes(), f.data.bytes() + 4 * record);
        // Pin the current record size: orientation (3 × f64) + fov spec
        // (2 × f64 degrees) = 40 bytes. If this assert fires, the meta
        // struct changed shape — update DESIGN.md §16's numbers too.
        assert_eq!(record, 40);
    }

    #[test]
    fn poisoned_lock_recovers_for_get_insert_and_stats() {
        let store = FovPrerenderStore::new();
        store.insert(key(0), fov(4, 1));
        let _ = store.get(&key(0));

        // Panic *while holding the store mutex* on another thread, so
        // the mutex is poisoned mid-"update" (state is still valid: the
        // store never holds the lock across user code).
        let poisoner = {
            let store = store.clone();
            std::thread::spawn(move || {
                let _guard = store.state.lock().unwrap();
                panic!("poison the store lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(store.state.is_poisoned(), "the test must actually poison the mutex");

        // Every public entry point recovers and keeps working.
        assert!(store.get(&key(0)).is_some());
        assert!(store.get(&key(9)).is_none());
        store.insert(key(1), fov(4, 2));
        let c = store.get_or_insert_with(key(2), || fov(4, 3));
        assert_eq!(c.meta.len(), 4);
        assert_eq!(store.len(), 3);
        assert!(store.resident_bytes() > 0);

        // Stats stayed coherent across the poison: 2 hits (pre- and
        // post-poison key-0 reads), 2 misses (the key-9 probe and the
        // get_or_insert build), nothing evicted or coalesced.
        let stats = store.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.coalesced, 0);
        store.clear();
        assert!(store.is_empty());
    }

    /// The same content transcoded to a coarser rung — what
    /// `insert_delta` is designed for.
    fn lower_rung_of(top: &PrerenderedFov, quantizer: u8) -> PrerenderedFov {
        PrerenderedFov {
            data: evr_video::delta::transcode_segment(&top.data, quantizer),
            meta: top.meta.clone(),
        }
    }

    #[test]
    fn delta_insert_shrinks_residency_and_reconstructs_bit_exactly() {
        let store = FovPrerenderStore::new();
        let top = fov(4, 1);
        let low = lower_rung_of(&top, 40);
        let top_key = key(0);
        let low_key = PrerenderKey { rung: 40, ..key(0) };
        let independent_cost = top.cost_bytes() + low.cost_bytes();
        store.insert(top_key, top);
        assert!(store.insert_delta(low_key, low.clone(), top_key), "delta should win");
        assert_eq!(store.delta_entries(), 1);
        assert!(
            store.resident_bytes() < independent_cost,
            "delta residency must shrink the store: {} >= {independent_cost}",
            store.resident_bytes()
        );
        // Lookup reconstructs the bit-exact independent encoding.
        let got = store.get(&low_key).expect("resident");
        assert_eq!(*got, low);
        assert_eq!(store.stats().reconstructs, 1);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn inserting_over_a_delta_resident_key_hands_back_the_exact_rung() {
        let store = FovPrerenderStore::new();
        let top = fov(4, 1);
        let low = lower_rung_of(&top, 40);
        let top_key = key(0);
        let low_key = PrerenderKey { rung: 40, ..key(0) };
        store.insert(top_key, top.clone());
        assert!(store.insert_delta(low_key, low.clone(), top_key));
        // A full insert racing the delta-resident rung gets the resident
        // entry back, rebuilt bit-exactly, and leaves it delta-resident.
        let got = store.insert(low_key, lower_rung_of(&top, 40));
        assert_eq!(*got, low);
        assert_eq!((store.len(), store.delta_entries()), (2, 1));
        // Every counted reconstruct is a lookup, counted as a hit too.
        let stats = store.stats();
        assert!(stats.reconstructs <= stats.hits, "{stats:?}");
        assert_eq!(*store.get(&low_key).expect("resident"), low);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.reconstructs), (1, 1));
    }

    #[test]
    fn delta_insert_without_reference_falls_back_to_full() {
        let store = FovPrerenderStore::new();
        let low = fov(4, 2);
        assert!(!store.insert_delta(key(1), low.clone(), key(0)), "no reference, no delta");
        assert_eq!(store.delta_entries(), 0);
        let got = store.get(&key(1)).expect("resident as full");
        assert_eq!(*got, low);
        assert_eq!(store.stats().reconstructs, 0);
    }

    #[test]
    fn evicting_the_reference_key_does_not_break_delta_reconstruction() {
        let top = fov(4, 1);
        let low = lower_rung_of(&top, 40);
        let store = FovPrerenderStore::with_budget(top.cost_bytes() * 2);
        let top_key = key(0);
        let low_key = PrerenderKey { rung: 40, ..key(0) };
        store.insert(top_key, top);
        assert!(store.insert_delta(low_key, low.clone(), top_key));
        // A filler entry pushes the reference key out (FIFO evicts the
        // oldest first)...
        store.insert(key(7), fov(4, 9));
        assert!(store.get(&top_key).is_none(), "reference key must be evicted");
        // ...but the delta entry pins the reference bytes by Arc, so
        // reconstruction still works and is still bit-exact.
        let got = store.get(&low_key).expect("delta entry survives");
        assert_eq!(*got, low);
    }

    #[test]
    fn fingerprint_separates_content_and_is_stable() {
        let cfg = SasConfig::tiny_for_tests();
        let a = content_fingerprint("rs", 60, &cfg);
        assert_eq!(a, content_fingerprint("rs", 60, &cfg));
        assert_ne!(a, content_fingerprint("nyc", 60, &cfg));
        assert_ne!(a, content_fingerprint("rs", 61, &cfg));
        let mut other = cfg;
        other.fov_quantizer += 1;
        assert_ne!(a, content_fingerprint("rs", 60, &other));
    }
}
