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
//!    straight from the catalog. The sharded front admits every request
//!    before its one fetch.
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
//! use evr_sas::{ingest_video_with, IngestOptions, SasConfig};
//! use evr_video::library::{scene_for, VideoId};
//!
//! let cfg = SasConfig::tiny_for_tests();
//! let catalog = ingest_video_with(&scene_for(VideoId::Rs), &cfg, 1.0, &IngestOptions::default())?;
//! // 30 frames at 8 frames per (test-sized) segment → 4 segments.
//! assert_eq!(catalog.segment_count(), 4);
//! assert!(!catalog.clusters_in_segment(0).is_empty());
//! # Ok::<(), evr_sas::IngestError>(())
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
pub use front::{Admission, SasFront, ShardStats, ShedReason};
pub use ingest::{ingest_video_with, FovStream, IngestError, IngestOptions, SasCatalog};
pub use ladder::{ingest_ladder_with, LadderCatalog};
pub use prerender::{FovPrerenderStore, PrerenderKey, PrerenderedFov, StoreStats};
pub use server::{FovUpgrade, SasError, SasServer};
pub use store::LogStore;
pub use tiles::{
    ingest_tiled_rates_with, TileClass, TileGrid, TileRung, TiledRateCatalog, PERIPHERY_MARGIN,
};
