//! Semantic-Aware Streaming (SAS) — the paper's cloud component (§5).
//!
//! SAS "pre-renders the pixels falling within the user's viewing area and
//! streams only those pixels", removing the projective transformation
//! from the device on an *FOV hit*. The pipeline, mirroring Fig. 4/7:
//!
//! 1. **Ingestion** ([`ingest`]) — upon video upload: split into
//!    30-frame, GOP-aligned temporal segments; in each segment's *key
//!    frame* detect and cluster objects; *track* the clusters through the
//!    segment's tracking frames; render one planar **FOV video** per
//!    cluster along the cluster trajectory; encode everything.
//! 2. **Store** ([`store`]) — a log-structured store holding FOV videos
//!    with their per-frame orientation metadata in a separate metadata
//!    log (§5.3, "SAS Store").
//! 3. **Serving** ([`server`], [`front`]) — FOV-video requests (at
//!    segment starts, at any ladder rung or as an upgrade) and tile
//!    requests, each answered by one typed fetch out of the server's
//!    pre-render store; the original segment of an FOV miss is read
//!    straight from the catalog. The sharded front batches both request
//!    kinds through one admission path.
//! 4. **Client checking** ([`checker`]) — the client-side FOV checker
//!    comparing the IMU pose against each FOV frame's metadata (§5.4).
//!
//! # Scale model
//!
//! Paper-scale content (4K source, 1440p FOV streams, minutes of video,
//! 59 users) is simulated at a configurable *analysis resolution*; byte
//! sizes scale by the pixel ratio to *target resolution* (bitrate is
//! proportional to pixel count at fixed content statistics and
//! quantiser). Both resolutions live in [`SasConfig`], and every reported
//! byte count says which scale it is in.
//!
//! # Example
//!
//! ```
//! use evr_sas::{ingest_video, SasConfig};
//! use evr_video::library::{scene_for, VideoId};
//!
//! let cfg = SasConfig::tiny_for_tests();
//! let catalog = ingest_video(&scene_for(VideoId::Rs), &cfg, 1.0);
//! // 30 frames at 8 frames per (test-sized) segment → 4 segments.
//! assert_eq!(catalog.segment_count(), 4);
//! assert!(!catalog.clusters_in_segment(0).is_empty());
//! ```

pub mod checker;
pub mod config;
pub mod fovladder;
pub mod front;
pub mod ingest;
pub mod ladder;
pub mod prerender;
pub mod server;
pub mod store;
pub mod tiles;

pub use checker::FovChecker;
pub use config::SasConfig;
pub use fovladder::{fov_rung_quantizers, populate_fov_ladder, FovLadderStats};
pub use front::{
    Admission, BatchOutcome, BatchReport, Disposition, FrontRequest, Payload, Request, SasFront,
    ShardStats, ShedReason,
};
pub use ingest::{
    ingest_video, ingest_video_with, FovStream, IngestError, IngestOptions, SasCatalog,
};
pub use ladder::{ingest_ladder, ingest_ladder_with, LadderCatalog};
pub use prerender::{FovPrerenderStore, PrerenderKey, PrerenderedFov, StoreStats};
pub use server::{FovUpgrade, SasError, SasServer};
pub use store::LogStore;
pub use tiles::{
    ingest_tiled_rates, ingest_tiled_rates_with, TileClass, TileGrid, TileRung, TiledRateCatalog,
    PERIPHERY_MARGIN,
};

/// The fan-out every SAS kernel calls directly — ingest, ladder, FOV
/// ladder, tiles and the front's batch builds all use
/// `evr_sched::run_chunked(count, workers, 0, work)` (auto chunk size)
/// and `evr_sched::resolve_workers`. These tests pin that exact call
/// shape, on which the byte-identical-for-any-worker-count contract of
/// every SAS output rests.
#[cfg(test)]
mod par {
    mod tests {
        use evr_sched::{resolve_workers, run_chunked};

        #[test]
        fn results_come_back_in_item_order_for_any_worker_count() {
            let serial: Vec<u64> = (0..37).map(|i| i * 3 + 1).collect();
            for workers in [1, 2, 3, 8, 64] {
                assert_eq!(run_chunked(37, workers, 0, |i| i * 3 + 1), serial, "{workers} workers");
            }
        }

        #[test]
        fn parity_holds_with_uneven_per_item_cost() {
            // Cost proportional to index — the straggler shape chunked
            // self-scheduling exists for. Output must not notice.
            let work = |i: u64| {
                let mut acc = i;
                for _ in 0..i * 20 {
                    acc =
                        acc.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
                }
                acc
            };
            let serial: Vec<u64> = (0..120).map(work).collect();
            for workers in [2, 8, 64] {
                assert_eq!(run_chunked(120, workers, 0, work), serial, "{workers} workers");
            }
        }

        #[test]
        fn zero_items_yield_an_empty_vec() {
            assert!(run_chunked(0, 8, 0, |i| i).is_empty());
        }

        #[test]
        fn worker_resolution_clamps_and_caps() {
            assert_eq!(resolve_workers(3, 100), 3);
            assert_eq!(resolve_workers(1000, 100), 64);
            assert_eq!(resolve_workers(8, 2), 2);
            assert!(resolve_workers(0, 1000) >= 1);
            assert_eq!(resolve_workers(0, 1), 1);
        }

        #[test]
        fn auto_worker_resolution_honours_the_documented_clamp() {
            // The `0` (auto) arm must obey the same 1..=64 contract as an
            // explicit request, even on a >64-core machine.
            let auto = resolve_workers(0, u64::MAX);
            assert!((1..=64).contains(&auto), "auto resolved to {auto}");
        }
    }
}
