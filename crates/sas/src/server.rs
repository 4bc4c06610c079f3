//! The SAS request handler.
//!
//! Paper §5.3, "Handling Client Requests": the server differentiates two
//! request types — FOV-video requests "made at the beginning of each
//! video segment when the client decides what object cluster the user is
//! most likely interested in", and original-video requests made on an
//! FOV miss, served as whole segments.
//!
//! Every server owns a [`FovPrerenderStore`] and answers through four
//! typed fetches: [`SasServer::fetch_fov`] (the top rung),
//! [`SasServer::fetch_fov_rung`] (a lower rung),
//! [`SasServer::fetch_fov_upgrade`] (top rung for a client holding a
//! lower one) and [`SasServer::fetch_tile`] (one tile at one rung of the
//! tiled-rate catalog). The original segment of an FOV miss is a whole
//! catalog record ([`SasCatalog::try_original_segment`]) and needs no
//! server-side work.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use evr_math::EulerAngles;
use evr_projection::FovFrameMeta;
use evr_video::codec::EncodedSegment;
use evr_video::delta::{transcode_segment, DeltaSegment, SegmentRepr};

use crate::fovladder::fov_rung_quantizers;
use crate::ingest::SasCatalog;
use crate::prerender::{FovPrerenderStore, PrerenderKey, PrerenderedFov};
use crate::tiles::{TileRung, TiledRateCatalog};

/// What [`SasServer::fetch_fov_upgrade`] moves on the wire: the top FOV
/// rung, expressed for a client that already holds a lower rung of the
/// same stream (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct FovUpgrade {
    /// The wire representation: a [`SegmentRepr::Delta`] against the
    /// client-held reference rung when that is smaller at target scale,
    /// the full top encoding otherwise.
    pub repr: SegmentRepr,
    /// Per-frame orientation metadata (identical across rungs).
    pub meta: Vec<FovFrameMeta>,
    /// Wire size at target (paper) scale, bytes.
    pub wire_bytes: u64,
    /// Residual coefficients carried (0 for a full fallback).
    pub residual_coeffs: u64,
}

/// Why a request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SasError {
    /// The temporal segment index is past the end of the catalog.
    UnknownSegment {
        /// The requested segment.
        segment: u32,
    },
    /// The segment exists but the cluster was never materialised (not
    /// listed, or cut by the utilisation budget).
    UnknownCluster {
        /// The requested segment.
        segment: u32,
        /// The requested cluster.
        cluster: usize,
    },
    /// The stream is listed in the catalog index but its log records are
    /// missing or unreadable — cloud-side corruption. Clients fall back
    /// to the original segment, exactly like an FOV miss.
    CorruptStream {
        /// The requested segment.
        segment: u32,
        /// The requested cluster.
        cluster: usize,
    },
    /// The quantiser is not a rung of the FOV ladder
    /// ([`fov_rung_quantizers`]), so no such representation of the
    /// stream exists.
    UnknownRung {
        /// The requested segment.
        segment: u32,
        /// The requested cluster.
        cluster: usize,
        /// The requested rung quantiser.
        quantizer: u8,
    },
    /// No tiled-rate catalog is attached, or the tile/rung index is out
    /// of range for the attached grid.
    UnknownTile {
        /// The requested segment.
        segment: u32,
        /// The requested tile index.
        tile: usize,
    },
}

impl std::fmt::Display for SasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SasError::UnknownSegment { segment } => write!(f, "unknown segment {segment}"),
            SasError::UnknownCluster { segment, cluster } => {
                write!(f, "unknown cluster {cluster} in segment {segment}")
            }
            SasError::CorruptStream { segment, cluster } => {
                write!(f, "corrupt stream for cluster {cluster} in segment {segment}")
            }
            SasError::UnknownRung { segment, cluster, quantizer } => {
                write!(f, "unknown rung q{quantizer} for cluster {cluster} in segment {segment}")
            }
            SasError::UnknownTile { segment, tile } => {
                write!(f, "unknown tile {tile} in segment {segment}")
            }
        }
    }
}

impl std::error::Error for SasError {}

/// Pre-resolved request/response counters for an observed server.
#[derive(Debug, Clone, Default)]
struct ServerMetrics {
    fov_requests: evr_obs::Counter,
    not_found: evr_obs::Counter,
    fov_bytes: evr_obs::Counter,
}

/// The SAS server for one ingested video.
#[derive(Debug, Clone)]
pub struct SasServer {
    catalog: SasCatalog,
    store: FovPrerenderStore,
    tiles: Option<Arc<TiledRateCatalog>>,
    metrics: ServerMetrics,
}

/// Equality is over the served catalog; attached observers are not part
/// of the server's identity.
impl PartialEq for SasServer {
    fn eq(&self, other: &Self) -> bool {
        self.catalog == other.catalog
    }
}

impl SasServer {
    /// Wraps an ingested catalog with a private pre-render store of the
    /// default budget.
    pub fn new(catalog: SasCatalog) -> Self {
        Self::with_store(catalog, FovPrerenderStore::new())
    }

    /// Wraps an ingested catalog with a shared pre-render store; the
    /// fetches serve out of the store, re-inserting from the catalog on a
    /// miss.
    pub fn with_store(catalog: SasCatalog, store: FovPrerenderStore) -> Self {
        SasServer { catalog, store, tiles: None, metrics: ServerMetrics::default() }
    }

    /// Attaches (or replaces) the multi-rate tiled catalog, enabling
    /// [`SasServer::fetch_tile`] for the `T`/`T+H` delivery modes.
    pub fn attach_tiles(&mut self, tiles: Arc<TiledRateCatalog>) {
        self.tiles = Some(tiles);
    }

    /// Whether a tiled-rate catalog is attached.
    pub fn has_tiles(&self) -> bool {
        self.tiles.is_some()
    }

    /// The attached tiled-rate catalog, if any.
    pub fn tiles(&self) -> Option<&Arc<TiledRateCatalog>> {
        self.tiles.as_ref()
    }

    /// Serves one tile of one segment at one quality rung, returning the
    /// encoding's byte accounting (target scale). Tile requests are keyed
    /// like FOV-stream requests so the serving front can coalesce, admit
    /// and shed them with the same machinery.
    pub fn fetch_tile(&self, segment: u32, tile: usize, rung: usize) -> Result<TileRung, SasError> {
        self.metrics.fov_requests.inc();
        let Some(tiles) = self.tiles.as_ref() else {
            self.metrics.not_found.inc();
            return Err(SasError::UnknownTile { segment, tile });
        };
        if segment >= tiles.segment_count() {
            self.metrics.not_found.inc();
            return Err(SasError::UnknownSegment { segment });
        }
        if tile >= tiles.grid().len() || rung >= tiles.rung_count() {
            self.metrics.not_found.inc();
            return Err(SasError::UnknownTile { segment, tile });
        }
        let r = tiles.rung(segment, tile, rung);
        self.metrics.fov_bytes.add(r.wire_bytes);
        Ok(r.clone())
    }

    /// Serves the FOV video of `(segment, cluster)` out of the pre-render
    /// store as an owned, refcounted payload, together with its wire size
    /// at target (paper) scale.
    ///
    /// On a store miss (evicted, or never pre-rendered because ingest ran
    /// store-less) the stream is read back from the catalog and
    /// re-inserted, so a popular segment is resident again after its
    /// first request. The payload bytes are the catalog's either way.
    pub fn fetch_fov(
        &self,
        segment: u32,
        cluster: usize,
    ) -> Result<(Arc<PrerenderedFov>, u64), SasError> {
        self.metrics.fov_requests.inc();
        let payload =
            self.top_payload(segment, cluster).inspect_err(|_| self.metrics.not_found.inc())?;
        Ok(self.served(payload))
    }

    /// Counts a served payload's wire size (target scale) and returns it
    /// alongside.
    fn served(&self, payload: Arc<PrerenderedFov>) -> (Arc<PrerenderedFov>, u64) {
        let wire_bytes = payload.data.scaled_bytes(self.catalog.config().fov_byte_scale());
        self.metrics.fov_bytes.add(wire_bytes);
        (payload, wire_bytes)
    }

    /// The store key of `(segment, cluster)` at `quantizer`.
    fn fov_key(&self, segment: u32, cluster: usize, quantizer: u8) -> PrerenderKey {
        PrerenderKey { content: self.catalog.content_id(), segment, cluster, rung: quantizer }
    }

    /// Refuses a quantiser outside the FOV ladder before any transcode
    /// or store insert: an arbitrary quantiser would transcode a payload
    /// that is no rung (saturated at 0, larger than the top at 1, outside
    /// the codec's range above 50).
    fn check_rung(&self, segment: u32, cluster: usize, quantizer: u8) -> Result<(), SasError> {
        if fov_rung_quantizers(self.catalog.config()).contains(&quantizer) {
            Ok(())
        } else {
            Err(SasError::UnknownRung { segment, cluster, quantizer })
        }
    }

    /// The resident top-rung payload of `(segment, cluster)`, read back
    /// from the catalog and re-inserted on a store miss. Shared by every
    /// FOV fetch; carries no request metrics of its own.
    fn top_payload(&self, segment: u32, cluster: usize) -> Result<Arc<PrerenderedFov>, SasError> {
        if segment >= self.catalog.segment_count() {
            return Err(SasError::UnknownSegment { segment });
        }
        let Some(stream) = self.catalog.fov_stream(segment, cluster) else {
            return Err(SasError::UnknownCluster { segment, cluster });
        };
        let key = self.fov_key(segment, cluster, self.catalog.config().fov_quantizer);
        if let Some(hit) = self.store.get(&key) {
            return Ok(hit);
        }
        let Some((data, meta)) = self.catalog.read_fov(stream) else {
            return Err(SasError::CorruptStream { segment, cluster });
        };
        Ok(self.store.insert(key, PrerenderedFov { data: data.clone(), meta: meta.to_vec() }))
    }

    /// The payload of `(segment, cluster)` at rung `quantizer`: a
    /// transcode of the resident top rung with the top's metadata, or
    /// the top itself at `fov_quantizer`. No lower-rung key is read or
    /// written.
    fn rung_payload(
        &self,
        segment: u32,
        cluster: usize,
        quantizer: u8,
    ) -> Result<Arc<PrerenderedFov>, SasError> {
        let top = self.top_payload(segment, cluster)?;
        if quantizer == self.catalog.config().fov_quantizer {
            return Ok(top);
        }
        Ok(Arc::new(PrerenderedFov {
            data: transcode_segment(&top.data, quantizer),
            meta: top.meta.clone(),
        }))
    }

    /// Serves the FOV video of `(segment, cluster)` at a lower-quality
    /// rung `quantizer` (the coarse half of the coarse-then-upgrade
    /// client path), together with its wire size at target scale.
    ///
    /// Every call transcodes the resident top rung
    /// ([`transcode_segment`]) and keeps the top's metadata: a lower
    /// rung is a pure function of the top, and a transcode costs less
    /// than storing, evicting and rebuilding the rung would (DESIGN.md
    /// §16). The store is never asked for, nor given, a lower-rung key,
    /// so the answer does not depend on what it holds and only top rungs
    /// compete for its budget. Requesting the catalog's own
    /// `fov_quantizer` is identical to [`SasServer::fetch_fov`]; a
    /// quantiser outside the ladder ([`fov_rung_quantizers`]) is refused
    /// as [`SasError::UnknownRung`].
    pub fn fetch_fov_rung(
        &self,
        segment: u32,
        cluster: usize,
        quantizer: u8,
    ) -> Result<(Arc<PrerenderedFov>, u64), SasError> {
        self.metrics.fov_requests.inc();
        let payload = self
            .check_rung(segment, cluster, quantizer)
            .and_then(|()| self.rung_payload(segment, cluster, quantizer))
            .inspect_err(|_| self.metrics.not_found.inc())?;
        Ok(self.served(payload))
    }

    /// Upgrades a client holding the `reference_quantizer` rung of
    /// `(segment, cluster)` to the top rung. With `delta_wire` the
    /// response is a sparse residual delta against the held rung
    /// whenever that is smaller at target scale — the client
    /// reconstructs ([`DeltaSegment::reconstruct`], bit-exact) and pays
    /// the reconstruction energy; otherwise (and whenever the delta is
    /// not smaller) the full top encoding moves instead. A
    /// `reference_quantizer` outside the ladder ([`fov_rung_quantizers`])
    /// is refused as [`SasError::UnknownRung`].
    ///
    /// The delta is computed straight from the resident top rung
    /// ([`DeltaSegment::encode_upgrade`]): the held rung is never
    /// fetched, reconstructed or admitted to the store, so the answer
    /// does not depend on what the store holds.
    pub fn fetch_fov_upgrade(
        &self,
        segment: u32,
        cluster: usize,
        reference_quantizer: u8,
        delta_wire: bool,
    ) -> Result<FovUpgrade, SasError> {
        self.metrics.fov_requests.inc();
        let top = self
            .check_rung(segment, cluster, reference_quantizer)
            .and_then(|()| self.top_payload(segment, cluster))
            .inspect_err(|_| self.metrics.not_found.inc())?;
        let scale = self.catalog.config().fov_byte_scale();
        let full_wire = top.data.scaled_bytes(scale);
        // Like the ladder's fallback rule, the winner is decided at the
        // accounting (target) scale: headers do not scale with
        // resolution, so the analysis-scale winner can differ.
        // A delta's size is a walk of its residuals: take it once.
        let delta = if delta_wire {
            let top_quantizer = self.catalog.config().fov_quantizer;
            upgrade_delta(&top.data, top_quantizer, reference_quantizer)
                .map(|d| (d.scaled_bytes(scale), d))
                .filter(|&(wire_bytes, _)| wire_bytes < full_wire)
        } else {
            None
        };
        let upgrade = match delta {
            Some((wire_bytes, d)) => FovUpgrade {
                wire_bytes,
                residual_coeffs: d.residual_coeffs(),
                meta: top.meta.clone(),
                repr: SegmentRepr::Delta(d),
            },
            None => FovUpgrade {
                repr: SegmentRepr::Full(top.data.clone()),
                meta: top.meta.clone(),
                wire_bytes: full_wire,
                residual_coeffs: 0,
            },
        };
        self.metrics.fov_bytes.add(upgrade.wire_bytes);
        Ok(upgrade)
    }

    /// Routes request/response counters into `observer` (`evr_sas_*`
    /// names) and publishes the store's segment count as a gauge. A
    /// no-op observer detaches the counters again.
    pub fn set_observer(&mut self, observer: &evr_obs::Observer) {
        use evr_obs::names;
        self.metrics = ServerMetrics {
            fov_requests: observer.counter(names::SAS_FOV_REQUESTS),
            not_found: observer.counter(names::SAS_NOT_FOUND),
            fov_bytes: observer.counter(names::SAS_FOV_BYTES),
        };
        observer.gauge(names::SAS_STORE_SEGMENTS).set(self.catalog.segment_count() as f64);
        self.store.mirror(observer);
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &SasCatalog {
        &self.catalog
    }

    /// Picks the cluster whose FOV video best covers a user looking at
    /// `pose` at the start of `segment` — the client-side selection rule
    /// of §5.3, exposed here because it only needs the stream metadata
    /// that accompanies the segment listing. Streams with missing
    /// metadata or non-finite similarity are skipped rather than
    /// panicking; ties keep the last candidate, matching the previous
    /// `max_by` selection.
    pub fn best_cluster(&self, segment: u32, pose: EulerAngles) -> Option<usize> {
        let view = pose.view_direction();
        let mut best: Option<(usize, f64)> = None;
        for c in self.catalog.clusters_in_segment(segment) {
            let Some(stream) = self.catalog.fov_stream(segment, c) else { continue };
            let Some((_, meta)) = self.catalog.read_fov(stream) else { continue };
            let Some(first) = meta.first() else { continue };
            let dot = first.orientation.view_direction().dot(view);
            if !dot.is_finite() {
                continue;
            }
            match best {
                Some((_, b)) if dot < b => {}
                _ => best = Some((c, dot)),
            }
        }
        best.map(|(c, _)| c)
    }
}

/// The upgrade delta of the top rung `top` for a client holding the
/// rung at `held_quantizer`: against the rung as
/// [`SasServer::fetch_fov_rung`] serves it. That is a transcode of the
/// top ([`DeltaSegment::encode_upgrade`]), except at the top quantiser,
/// where the client holds the top rung itself.
fn upgrade_delta(
    top: &EncodedSegment,
    top_quantizer: u8,
    held_quantizer: u8,
) -> Option<DeltaSegment> {
    if held_quantizer == top_quantizer {
        DeltaSegment::encode(top, top)
    } else {
        DeltaSegment::encode_upgrade(top, held_quantizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SasConfig;
    use crate::ingest::{ingest_video_with, IngestOptions};
    use evr_video::library::{scene_for, VideoId};

    /// One second of `video` ingested under `cfg`.
    fn ingest(video: VideoId, cfg: &SasConfig) -> SasCatalog {
        ingest_video_with(&scene_for(video), cfg, 1.0, &IngestOptions::default())
            .expect("valid config")
    }

    fn server(video: VideoId) -> SasServer {
        SasServer::new(ingest(video, &SasConfig::tiny_for_tests()))
    }

    #[test]
    fn serves_fov_videos() {
        let s = server(VideoId::Rhino);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let (payload, wire_bytes) = s.fetch_fov(0, cluster).expect("listed stream");
        assert_eq!(payload.data.frames.len(), payload.meta.len());
        assert!(wire_bytes > 0);
    }

    #[test]
    fn serves_original_on_request() {
        let s = server(VideoId::Rhino);
        let original = s.catalog().try_original_segment(1).expect("segment 1 exists");
        assert_eq!(original.start_index, 8);
        assert!(s.catalog().original_target_bytes(1) > Some(0));
    }

    #[test]
    fn unknown_streams_are_not_found() {
        let s = server(VideoId::Rs);
        assert_eq!(s.fetch_fov(0, 99), Err(SasError::UnknownCluster { segment: 0, cluster: 99 }));
        assert!(s.catalog().try_original_segment(999).is_none());
    }

    #[test]
    fn try_handle_distinguishes_failure_modes() {
        let s = server(VideoId::Rs);
        assert_eq!(s.fetch_fov(0, 99), Err(SasError::UnknownCluster { segment: 0, cluster: 99 }));
        assert_eq!(s.fetch_fov(999, 0), Err(SasError::UnknownSegment { segment: 999 }));
        assert_eq!(s.fetch_fov(u32::MAX, 0), Err(SasError::UnknownSegment { segment: u32::MAX }));
        let cluster = s.catalog().clusters_in_segment(0)[0];
        assert!(s.fetch_fov(0, cluster).is_ok());
        assert_eq!(
            SasError::UnknownCluster { segment: 1, cluster: 2 }.to_string(),
            "unknown cluster 2 in segment 1"
        );
    }

    #[test]
    fn fov_video_is_smaller_on_the_wire_than_original() {
        // The bandwidth argument of Fig. 13: an FOV stream carries fewer
        // target-scale bytes than the full panoramic segment.
        let s = server(VideoId::Rhino);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let (_, fov_bytes) = s.fetch_fov(0, cluster).expect("listed stream");
        let orig_bytes = s.catalog().original_target_bytes(0).expect("segment 0 exists");
        assert!(fov_bytes < orig_bytes, "fov {fov_bytes} orig {orig_bytes}");
    }

    #[test]
    fn best_cluster_picks_the_nearest_stream() {
        let s = server(VideoId::Rhino);
        let clusters = s.catalog().clusters_in_segment(0);
        for &c in &clusters {
            let stream = s.catalog().fov_stream(0, c).unwrap();
            let (_, meta) = s.catalog().read_fov(stream).unwrap();
            let pose = meta[0].orientation;
            assert_eq!(s.best_cluster(0, pose), Some(c), "looking straight at cluster {c}");
        }
    }

    #[test]
    fn observed_server_counts_requests_and_bytes() {
        let obs = evr_obs::Observer::enabled();
        let mut s = server(VideoId::Rhino);
        s.set_observer(&obs);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let (_, fov_wire) = s.fetch_fov(0, cluster).expect("listed stream");
        let _ = s.fetch_fov(0, 99);
        let _ = s.fetch_fov(999, 0);
        use evr_obs::names;
        assert_eq!(obs.counter(names::SAS_FOV_REQUESTS).get(), 3);
        assert_eq!(obs.counter(names::SAS_ORIGINAL_REQUESTS).get(), 0);
        assert_eq!(obs.counter(names::SAS_NOT_FOUND).get(), 2);
        assert_eq!(obs.counter(names::SAS_FOV_BYTES).get(), fov_wire);
        assert_eq!(obs.gauge(names::SAS_STORE_SEGMENTS).get(), s.catalog().segment_count() as f64);
    }

    #[test]
    fn fetch_fov_misses_cold_then_hits_warm_and_matches_try_handle() {
        let catalog = ingest(VideoId::Rhino, &SasConfig::tiny_for_tests());
        let store = crate::prerender::FovPrerenderStore::new();
        let s = SasServer::with_store(catalog, store.clone());
        let cluster = s.catalog().clusters_in_segment(0)[0];

        // Cold: the store was not populated at ingest, so the first
        // request reads the catalog and re-inserts.
        let (cold, cold_wire) = s.fetch_fov(0, cluster).expect("cold fetch");
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.len(), 1);

        // Warm: second request is a pure store hit, same payload.
        let (warm, warm_wire) = s.fetch_fov(0, cluster).expect("warm fetch");
        assert_eq!(store.stats().hits, 1);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(cold_wire, warm_wire);

        // Store-backed bytes are the catalog's own.
        let stream = s.catalog().fov_stream(0, cluster).expect("listed");
        let (data, meta) = s.catalog().read_fov(stream).expect("readable");
        assert_eq!(data, &cold.data);
        assert_eq!(meta, cold.meta.as_slice());
        assert_eq!(s.catalog().fov_target_bytes(stream), cold_wire);
    }

    #[test]
    fn fetch_fov_reports_unknown_streams_as_typed_errors() {
        let catalog = ingest(VideoId::Rs, &SasConfig::tiny_for_tests());
        let s = SasServer::with_store(catalog, crate::prerender::FovPrerenderStore::new());
        assert_eq!(s.fetch_fov(0, 99), Err(SasError::UnknownCluster { segment: 0, cluster: 99 }));
        assert_eq!(s.fetch_fov(999, 0), Err(SasError::UnknownSegment { segment: 999 }));
        assert_eq!(
            SasError::CorruptStream { segment: 3, cluster: 1 }.to_string(),
            "corrupt stream for cluster 1 in segment 3"
        );
    }

    #[test]
    fn store_populated_at_ingest_serves_without_re_reading() {
        let store = crate::prerender::FovPrerenderStore::new();
        let options =
            IngestOptions { workers: 2, store: Some(store.clone()), ..IngestOptions::default() };
        let catalog = ingest_video_with(
            &scene_for(VideoId::Rhino),
            &SasConfig::tiny_for_tests(),
            1.0,
            &options,
        )
        .expect("ingest");
        let misses_after_ingest = store.stats().misses;
        let s = SasServer::with_store(catalog, store.clone());
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let (payload, wire) = s.fetch_fov(0, cluster).expect("fetch");
        assert_eq!(store.stats().misses, misses_after_ingest, "served from ingest pre-render");
        assert!(store.stats().hits >= 1);
        assert!(!payload.data.frames.is_empty());
        assert!(wire > 0);
    }

    /// A rung fetch is a transcode of the top rung alone: a cold store,
    /// stores filled with the delta or the full ladder and a one-byte
    /// store give equal answers, and the cold store gains only the top
    /// rung.
    #[test]
    fn rungs_do_not_depend_on_the_store() {
        use crate::fovladder::populate_fov_ladder;
        use crate::prerender::FovPrerenderStore;
        let cfg = SasConfig::tiny_for_tests();
        let catalog = ingest(VideoId::Rhino, &cfg);
        let rungs = fov_rung_quantizers(&cfg);
        let scale = cfg.fov_byte_scale();
        let filled = |delta| {
            let store = FovPrerenderStore::new();
            populate_fov_ladder(&catalog, &store, &rungs, 1, delta);
            SasServer::with_store(catalog.clone(), store)
        };
        let tiny = SasServer::with_store(catalog.clone(), FovPrerenderStore::with_budget(1));
        let servers = [filled(true), filled(false), tiny];
        let mut checked = 0;
        for segment in 0..catalog.segment_count() {
            for cluster in catalog.clusters_in_segment(segment) {
                let stream = catalog.fov_stream(segment, cluster).expect("listed");
                let (top, top_meta) = catalog.read_fov(stream).expect("readable");
                for &q in &rungs[..rungs.len() - 1] {
                    let store = FovPrerenderStore::new();
                    let cold = SasServer::with_store(catalog.clone(), store.clone());
                    let want = cold.fetch_fov_rung(segment, cluster, q);
                    let (payload, wire) = want.as_ref().expect("ladder rung");
                    let rung = transcode_segment(top, q);
                    assert_eq!(payload.data, rung, "({segment}, {cluster}) q{q}");
                    assert_eq!(payload.meta, top_meta);
                    assert_eq!(*wire, rung.scaled_bytes(scale));
                    assert_eq!((store.len(), store.delta_entries()), (1, 0), "top rung only");
                    for s in &servers {
                        assert_eq!(s.fetch_fov_rung(segment, cluster, q), want);
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "the catalog lists no stream");

        // The top quantiser routes through the ordinary fetch path.
        let s = server(VideoId::Rhino);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let (top, top_wire) = s.fetch_fov(0, cluster).expect("top");
        let (coarse, coarse_wire) = s.fetch_fov_rung(0, cluster, rungs[0]).expect("coarse");
        assert!(coarse_wire < top_wire, "coarse {coarse_wire} top {top_wire}");
        let (via_rung, via_rung_wire) =
            s.fetch_fov_rung(0, cluster, cfg.fov_quantizer).expect("top via rung");
        assert!(Arc::ptr_eq(&via_rung, &top));
        assert_eq!(via_rung_wire, top_wire);
        assert_ne!(coarse.data, top.data);
    }

    /// Rung fetches and upgrades write nothing but top rungs, so a store
    /// budgeted at exactly the tops serves the whole ladder of every
    /// stream without one eviction.
    #[test]
    fn serving_rungs_never_evicts_a_top_rung() {
        use crate::prerender::FovPrerenderStore;
        let cfg = SasConfig::tiny_for_tests();
        let catalog = ingest(VideoId::Rhino, &cfg);
        let rungs = fov_rung_quantizers(&cfg);
        let streams: Vec<(u32, usize)> = (0..catalog.segment_count())
            .flat_map(|s| catalog.clusters_in_segment(s).into_iter().map(move |c| (s, c)))
            .collect();
        assert!(!streams.is_empty() && rungs.len() > 1, "the test needs lower rungs");
        let tops: u64 = streams
            .iter()
            .map(|&(s, c)| {
                let stream = catalog.fov_stream(s, c).expect("listed");
                let (data, meta) = catalog.read_fov(stream).expect("readable");
                PrerenderedFov { data: data.clone(), meta: meta.to_vec() }.cost_bytes()
            })
            .sum();
        let store = FovPrerenderStore::with_budget(tops);
        let s = SasServer::with_store(catalog, store.clone());
        for &(segment, cluster) in &streams {
            for &q in &rungs {
                s.fetch_fov_rung(segment, cluster, q).expect("ladder rung");
                for delta_wire in [false, true] {
                    s.fetch_fov_upgrade(segment, cluster, q, delta_wire).expect("upgrade");
                }
            }
        }
        assert_eq!(store.stats().evictions, 0, "{:?}", store.stats());
        assert_eq!((store.len(), store.delta_entries()), (streams.len(), 0));
        assert_eq!(store.resident_bytes(), tops);
        for &(segment, cluster) in &streams {
            let key = s.fov_key(segment, cluster, cfg.fov_quantizer);
            assert!(store.get(&key).is_some(), "top of ({segment}, {cluster}) evicted");
        }
    }

    #[test]
    fn fetch_fov_rung_reports_typed_errors() {
        let s = server(VideoId::Rs);
        assert_eq!(
            s.fetch_fov_rung(0, 99, 30),
            Err(SasError::UnknownCluster { segment: 0, cluster: 99 })
        );
        assert_eq!(s.fetch_fov_rung(999, 0, 30), Err(SasError::UnknownSegment { segment: 999 }));
    }

    #[test]
    fn quantizers_outside_the_ladder_are_refused_without_touching_the_store() {
        let catalog = ingest(VideoId::Rhino, &SasConfig::tiny_for_tests());
        let store = crate::prerender::FovPrerenderStore::new();
        let obs = evr_obs::Observer::enabled();
        let mut s = SasServer::with_store(catalog, store.clone());
        s.set_observer(&obs);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let ladder = fov_rung_quantizers(s.catalog().config());
        s.fetch_fov_rung(0, cluster, ladder[0]).expect("a ladder rung serves");
        let (len, stats) = (store.len(), store.stats());
        for quantizer in [0, 1, 51, 200] {
            assert!(!ladder.contains(&quantizer));
            let refused = SasError::UnknownRung { segment: 0, cluster, quantizer };
            assert_eq!(s.fetch_fov_rung(0, cluster, quantizer), Err(refused));
            for delta_wire in [false, true] {
                assert_eq!(s.fetch_fov_upgrade(0, cluster, quantizer, delta_wire), Err(refused));
            }
        }
        assert_eq!((store.len(), store.stats()), (len, stats), "store untouched");
        assert_eq!(obs.counter(evr_obs::names::SAS_NOT_FOUND).get(), 12);
        assert_eq!(
            SasError::UnknownRung { segment: 1, cluster: 2, quantizer: 0 }.to_string(),
            "unknown rung q0 for cluster 2 in segment 1"
        );
    }

    #[test]
    fn fetch_fov_upgrade_delta_reconstructs_the_exact_top_rung() {
        let catalog = ingest(VideoId::Rhino, &SasConfig::tiny_for_tests());
        let store = crate::prerender::FovPrerenderStore::new();
        let s = SasServer::with_store(catalog, store.clone());
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let coarse_q = s.catalog().config().fov_quantizer * 2;

        let (coarse, _) = s.fetch_fov_rung(0, cluster, coarse_q).expect("coarse");
        let (top, top_wire) = s.fetch_fov(0, cluster).expect("top");

        // Without the delta wire the full top encoding moves.
        let full = s.fetch_fov_upgrade(0, cluster, coarse_q, false).expect("full upgrade");
        assert!(!full.repr.is_delta());
        assert_eq!(full.wire_bytes, top_wire);
        assert_eq!(full.residual_coeffs, 0);
        assert_eq!(full.repr.reconstruct(None), top.data);

        // With it, the upgrade is never larger, and reconstructing
        // against the client-held coarse rung is bit-exact.
        let upgrade = s.fetch_fov_upgrade(0, cluster, coarse_q, true).expect("delta upgrade");
        assert!(upgrade.wire_bytes <= top_wire, "{} > {top_wire}", upgrade.wire_bytes);
        assert_eq!(upgrade.meta, top.meta);
        assert_eq!(upgrade.repr.reconstruct(Some(&coarse.data)), top.data);
        if upgrade.repr.is_delta() {
            assert!(upgrade.residual_coeffs > 0);
            assert!(upgrade.wire_bytes < top_wire);
        }
    }

    /// An upgrade is a function of the top rung alone: a cold store,
    /// stores filled with the delta or the full ladder and a one-byte
    /// store give equal answers, and the cold store gains only the top
    /// rung.
    #[test]
    fn upgrades_do_not_depend_on_the_store() {
        use crate::fovladder::populate_fov_ladder;
        use crate::prerender::FovPrerenderStore;
        let cfg = SasConfig::tiny_for_tests();
        let catalog = ingest(VideoId::Rhino, &cfg);
        let rungs = fov_rung_quantizers(&cfg);
        let filled = |delta| {
            let store = FovPrerenderStore::new();
            populate_fov_ladder(&catalog, &store, &rungs, 1, delta);
            SasServer::with_store(catalog.clone(), store)
        };
        let tiny = SasServer::with_store(catalog.clone(), FovPrerenderStore::with_budget(1));
        let servers = [filled(true), filled(false), tiny];
        let mut checked = 0;
        for segment in 0..catalog.segment_count() {
            for cluster in catalog.clusters_in_segment(segment) {
                for &q in &rungs[..rungs.len() - 1] {
                    for delta_wire in [false, true] {
                        let store = FovPrerenderStore::new();
                        let cold = SasServer::with_store(catalog.clone(), store.clone());
                        let want = cold.fetch_fov_upgrade(segment, cluster, q, delta_wire);
                        assert!(want.is_ok(), "({segment}, {cluster}) q{q}: {want:?}");
                        assert_eq!((store.len(), store.delta_entries()), (1, 0), "top rung only");
                        for s in &servers {
                            assert_eq!(s.fetch_fov_upgrade(segment, cluster, q, delta_wire), want);
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "the catalog lists no stream");
    }

    /// A client holding the top rung upgrades against the top itself,
    /// the bytes `fetch_fov_rung` serves at the top quantiser. A
    /// transcode of the top to that quantiser would differ wherever a
    /// frame was coded at another one.
    #[test]
    fn an_upgrade_from_the_top_quantizer_is_against_the_top_itself() {
        let s = server(VideoId::Rhino);
        let cluster = s.catalog().clusters_in_segment(0)[0];
        let top_q = s.catalog().config().fov_quantizer;
        let (held, _) = s.fetch_fov_rung(0, cluster, top_q).expect("top rung");
        let up = s.fetch_fov_upgrade(0, cluster, top_q, true).expect("upgrade");
        assert_eq!(up.repr.reconstruct(Some(&held.data)), held.data);

        use evr_projection::{ImageBuffer, Rgb};
        use evr_video::codec::{CodecConfig, Encoder};
        let img = ImageBuffer::from_fn(32, 16, |x, y| Rgb::new((x * 7) as u8, (y * 13) as u8, 90));
        let frames = [top_q - 3, top_q, top_q + 4]
            .map(|q| Encoder::new(CodecConfig::new(1, q)).encode_frame(&img))
            .to_vec();
        let top = EncodedSegment { start_index: 0, frames };
        let d = upgrade_delta(&top, top_q, top_q).expect("non-empty");
        assert_eq!(d, DeltaSegment::encode(&top, &top).expect("same shape"));
        assert_ne!(
            d.reference_digest,
            evr_video::delta::segment_digest(&transcode_segment(&top, top_q))
        );
        assert_eq!(d.reconstruct(&top), top);
        let coarse = top_q * 2;
        assert_eq!(
            upgrade_delta(&top, top_q, coarse),
            DeltaSegment::encode(&top, &transcode_segment(&top, coarse))
        );
    }

    #[test]
    fn fetch_tile_serves_rungs_and_reports_typed_errors() {
        let mut s = server(VideoId::Rhino);
        assert!(!s.has_tiles());
        assert_eq!(s.fetch_tile(0, 0, 0), Err(SasError::UnknownTile { segment: 0, tile: 0 }));

        let cfg = SasConfig::tiny_for_tests();
        let tiles = crate::tiles::ingest_tiled_rates_with(&scene_for(VideoId::Rhino), &cfg, 1.0, 0);
        s.attach_tiles(Arc::new(tiles));
        assert!(s.has_tiles());
        let grid = s.tiles().unwrap().grid();
        let rungs = s.tiles().unwrap().rung_count();

        let r = s.fetch_tile(0, 0, rungs - 1).expect("top rung");
        assert!(r.wire_bytes > 0);
        assert!(!r.frame_bytes.is_empty());
        assert_eq!(s.fetch_tile(999, 0, 0), Err(SasError::UnknownSegment { segment: 999 }));
        assert_eq!(
            s.fetch_tile(0, grid.len(), 0),
            Err(SasError::UnknownTile { segment: 0, tile: grid.len() })
        );
        assert_eq!(s.fetch_tile(0, 0, rungs), Err(SasError::UnknownTile { segment: 0, tile: 0 }));
        assert_eq!(
            SasError::UnknownTile { segment: 2, tile: 7 }.to_string(),
            "unknown tile 7 in segment 2"
        );
    }

    #[test]
    fn best_cluster_none_when_segment_empty() {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.object_utilization = 0.0;
        let s = SasServer::new(ingest(VideoId::Rs, &cfg));
        assert_eq!(s.best_cluster(0, evr_math::EulerAngles::default()), None);
    }

    #[test]
    fn the_last_segment_index_has_no_clusters() {
        // The per-segment index range must not compute `segment + 1`,
        // which overflows here.
        let s = server(VideoId::Rhino);
        assert!(s.catalog().clusters_in_segment(u32::MAX).is_empty());
        assert_eq!(s.best_cluster(u32::MAX, evr_math::EulerAngles::default()), None);
    }
}
