//! The FOV-stream bitrate ladder over the pre-render store.
//!
//! Ingestion encodes every FOV stream once, at the catalog's
//! `fov_quantizer`. The server's rung and upgrade fetches
//! (`SasServer::fetch_fov_rung` / `fetch_fov_upgrade`) also answer
//! lower-quality rungs of the same streams — and keeping every rung as an
//! independent full encoding multiplies the store's residency by the rung
//! count. This module populates a [`FovPrerenderStore`] with the whole
//! ladder, holding the top rung full and every lower rung delta-resident
//! against it ([`FovPrerenderStore::insert_delta`]; DESIGN.md §16), so
//! the marginal cost of a rung is its sparse residuals rather than a
//! full encoding.
//!
//! This is the store's residency model, pinned by the tier-1 tests and
//! run by the benchmark's ingest stage. Serving does not read it:
//! `SasServer` answers a rung fetch with a transcode of the resident top
//! rung and never looks up a lower-rung key, so a ladder-filled store
//! serves the same bytes as one holding only the tops.

use evr_video::delta::transcode_segment;

use crate::config::SasConfig;
use crate::ingest::SasCatalog;
use crate::prerender::{FovPrerenderStore, PrerenderKey, PrerenderedFov};

/// The FOV-stream quantiser ladder, coarsest first: the doubled top
/// quantiser (clamped to the codec's 50 cap), a midpoint, and the
/// catalog's own `fov_quantizer` — the same shape as
/// [`SasConfig::tiled_rung_quantizers`]. Coinciding rungs deduplicate,
/// so the ladder is always strictly descending.
pub fn fov_rung_quantizers(config: &SasConfig) -> Vec<u8> {
    let top = config.fov_quantizer;
    let low = top.saturating_mul(2).min(50).max(top);
    let mid = top + (low - top) / 2;
    let mut rungs = vec![low, mid, top];
    rungs.dedup();
    rungs
}

/// What [`populate_fov_ladder`] admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FovLadderStats {
    /// Entries admitted (streams × rungs).
    pub inserted: usize,
    /// Lower-rung entries that went delta-resident (the rest fell back
    /// to full encodings because their delta was not smaller).
    pub delta_won: usize,
}

/// Pre-renders every FOV stream of `catalog` at every rung of
/// `quantizers` (coarsest first; the last rung must be the catalog's
/// `fov_quantizer`) into `store`. The top rung is admitted full; with
/// `delta`, lower rungs are admitted via
/// [`FovPrerenderStore::insert_delta`] (falling back to full wherever
/// the delta is not smaller), otherwise everything is admitted full —
/// the two populations reconstruct to bit-identical payloads, differing
/// only in residency.
///
/// The transcodes are pure per stream and fan out through the
/// deterministic chunked scheduler (`workers` as in every fan-out:
/// `0` = one per core); admissions run serially in stream order, so the
/// store contents are byte-identical for any worker count.
///
/// # Panics
///
/// Panics if `quantizers` is empty, not strictly descending, does not
/// end at the catalog's `fov_quantizer`, or holds a rung above the
/// codec's 50 ([`transcode_segment`]).
pub fn populate_fov_ladder(
    catalog: &SasCatalog,
    store: &FovPrerenderStore,
    quantizers: &[u8],
    workers: usize,
    delta: bool,
) -> FovLadderStats {
    assert!(!quantizers.is_empty(), "ladder needs at least one rung");
    assert!(
        quantizers.windows(2).all(|w| w[0] > w[1]),
        "rung quantisers must be strictly descending (coarsest first)"
    );
    let top_quantizer = *quantizers.last().expect("non-empty ladder");
    assert_eq!(
        top_quantizer,
        catalog.config().fov_quantizer,
        "the top rung must be the catalog's own fov_quantizer"
    );
    let streams: Vec<(u32, usize)> = (0..catalog.segment_count())
        .flat_map(|s| catalog.clusters_in_segment(s).into_iter().map(move |c| (s, c)))
        .collect();
    let rows = evr_sched::run_chunked(streams.len() as u64, workers, 0, |i| {
        let (segment, cluster) = streams[i as usize];
        let stream = catalog.fov_stream(segment, cluster).expect("indexed stream");
        let (data, meta) = catalog.read_fov(stream).expect("readable stream");
        quantizers
            .iter()
            .map(|&q| PrerenderedFov {
                data: if q == top_quantizer { data.clone() } else { transcode_segment(data, q) },
                meta: meta.to_vec(),
            })
            .collect::<Vec<_>>()
    });
    let mut stats = FovLadderStats::default();
    let content = catalog.content_id();
    for (&(segment, cluster), mut fovs) in streams.iter().zip(rows) {
        // Top rung first, so the lower rungs find their reference.
        let top = fovs.pop().expect("top rung");
        let top_key = PrerenderKey { content, segment, cluster, rung: top_quantizer };
        store.insert(top_key, top);
        stats.inserted += 1;
        for (&q, fov) in quantizers[..quantizers.len() - 1].iter().zip(fovs) {
            let key = PrerenderKey { content, segment, cluster, rung: q };
            if delta {
                if store.insert_delta(key, fov, top_key) {
                    stats.delta_won += 1;
                }
            } else {
                store.insert(key, fov);
            }
            stats.inserted += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{ingest_video_with, IngestOptions};
    use evr_video::library::{scene_for, VideoId};

    fn catalog(video: VideoId) -> SasCatalog {
        let cfg = SasConfig::tiny_for_tests();
        ingest_video_with(&scene_for(video), &cfg, 1.0, &IngestOptions::default())
            .expect("tiny config ingests")
    }

    fn keys(catalog: &SasCatalog, quantizers: &[u8]) -> Vec<PrerenderKey> {
        let content = catalog.content_id();
        (0..catalog.segment_count())
            .flat_map(|s| {
                catalog.clusters_in_segment(s).into_iter().flat_map(move |c| {
                    quantizers
                        .iter()
                        .map(move |&q| PrerenderKey { content, segment: s, cluster: c, rung: q })
                        .collect::<Vec<_>>()
                })
            })
            .collect()
    }

    #[test]
    fn rungs_follow_the_tiled_convention() {
        assert_eq!(fov_rung_quantizers(&SasConfig::default()), vec![30, 22, 15]);
        let one = SasConfig { fov_quantizer: 50, ..SasConfig::default() };
        assert_eq!(fov_rung_quantizers(&one), vec![50]);
    }

    #[test]
    fn delta_ladder_shrinks_residency_and_reconstructs_bit_exactly() {
        let catalog = catalog(VideoId::Rhino);
        let rungs = fov_rung_quantizers(catalog.config());
        assert!(rungs.len() >= 2, "the test needs lower rungs");

        let full = FovPrerenderStore::new();
        let full_stats = populate_fov_ladder(&catalog, &full, &rungs, 1, false);
        let delta = FovPrerenderStore::new();
        let delta_stats = populate_fov_ladder(&catalog, &delta, &rungs, 1, true);

        assert_eq!(full_stats.inserted, delta_stats.inserted);
        assert_eq!(full_stats.delta_won, 0);
        assert!(delta_stats.delta_won > 0, "no lower rung went delta-resident");
        assert_eq!(delta.delta_entries(), delta_stats.delta_won);
        // Delta residency must shed at least 30 % of the full ladder's.
        let reduction = 1.0 - delta.resident_bytes() as f64 / full.resident_bytes() as f64;
        assert!(
            reduction >= 0.30,
            "delta {} vs full {} resident bytes: {:.1} % saved",
            delta.resident_bytes(),
            full.resident_bytes(),
            reduction * 100.0
        );

        for key in keys(&catalog, &rungs) {
            let a = full.get(&key).expect("full-resident entry");
            let b = delta.get(&key).expect("delta-resident entry");
            assert_eq!(a.data, b.data, "payload diverged at {key:?}");
            assert_eq!(a.meta, b.meta);
        }
    }

    /// Every lower rung of a real catalog goes delta-resident: a rung
    /// transcoded from the top has no residuals against it (the delta's
    /// prediction is the transcode's own requantisation), so its delta
    /// costs headers and skip flags only and always beats the full
    /// encoding.
    #[test]
    fn every_lower_rung_goes_delta_resident() {
        for video in [VideoId::Paris, VideoId::Rhino] {
            let catalog = catalog(video);
            let rungs = fov_rung_quantizers(catalog.config());
            let streams: usize =
                (0..catalog.segment_count()).map(|s| catalog.clusters_in_segment(s).len()).sum();
            assert!(streams > 0 && rungs.len() > 1, "{video:?} has lower rungs to test");
            let store = FovPrerenderStore::new();
            let stats = populate_fov_ladder(&catalog, &store, &rungs, 1, true);
            assert_eq!(stats.delta_won, streams * (rungs.len() - 1), "{video:?}");
            assert_eq!(store.delta_entries(), stats.delta_won);
        }
    }

    #[test]
    fn ladder_population_is_worker_independent() {
        let catalog = catalog(VideoId::Rhino);
        let rungs = fov_rung_quantizers(catalog.config());
        let serial = FovPrerenderStore::new();
        populate_fov_ladder(&catalog, &serial, &rungs, 1, true);
        let parallel = FovPrerenderStore::new();
        populate_fov_ladder(&catalog, &parallel, &rungs, 4, true);
        assert_eq!(serial.resident_bytes(), parallel.resident_bytes());
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.delta_entries(), parallel.delta_entries());
        for key in keys(&catalog, &rungs) {
            assert_eq!(
                serial.get(&key).expect("serial entry").data,
                parallel.get(&key).expect("parallel entry").data
            );
        }
    }

    #[test]
    #[should_panic(expected = "fov_quantizer")]
    fn ladder_not_ending_at_the_catalog_rung_panics() {
        let catalog = catalog(VideoId::Rhino);
        let _ = populate_fov_ladder(&catalog, &FovPrerenderStore::new(), &[40, 20], 1, true);
    }
}
