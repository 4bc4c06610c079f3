//! The EVR client device: playback-pipeline simulation with full energy
//! accounting.
//!
//! Mirrors the client half of the paper's Fig. 4: content arrives either
//! as pre-rendered FOV videos (SAS hits display directly) or as original
//! panoramic segments that must run through on-device projective
//! transformation — on the GPU (today's path) or on the PTE accelerator
//! (HAR). Every microjoule is tagged into the five-component
//! [`evr_energy::EnergyLedger`], which is what the paper's Figures 3, 12,
//! 13, 15 and 16 read out.
//!
//! * [`network`] — the WiFi link model (300 Mbps effective, per §8.2)
//!   with streaming-aware rebuffer times.
//! * [`session`] — the per-user playback simulation across the online
//!   (SAS / baseline), live-streaming and offline-playback use-cases.
//!
//! # Example
//!
//! ```
//! use evr_client::session::{ContentPath, PlaybackSession, Renderer, SessionConfig};
//! use evr_sas::{ingest_video_with, IngestOptions, SasConfig, SasServer};
//! use evr_trace::behavior::{generate_user_trace, params_for};
//! use evr_video::library::{scene_for, VideoId};
//!
//! let scene = scene_for(VideoId::Rs);
//! let sas = SasConfig::tiny_for_tests();
//! let server = SasServer::new(ingest_video_with(&scene, &sas, 1.0, &IngestOptions::default())?);
//! let trace = generate_user_trace(&scene, &params_for(VideoId::Rs), 0, 1.0, 30.0);
//! let cfg = SessionConfig::new(ContentPath::OnlineSas, Renderer::Pte, sas);
//! let report = PlaybackSession::new(cfg).run(&server, &trace);
//! assert!(report.frames_total > 0);
//! assert!(report.ledger.total() > 0.0);
//! # Ok::<(), evr_sas::IngestError>(())
//! ```

pub mod abr;
pub mod network;
pub mod pipeline;
pub mod session;

pub use abr::{allocate_tile_rungs, TileAllocation};
pub use network::NetworkModel;
pub use pipeline::{
    CleanTransport, FaultedTransport, FovPassthrough, GpuBackend, PteBackend, RenderBackend,
    SegmentLink, StageIo, Transport,
};
pub use session::{
    ContentPath, FaultSummary, PlaybackReport, PlaybackSession, Renderer, SelectionPolicy,
    SessionConfig,
};
