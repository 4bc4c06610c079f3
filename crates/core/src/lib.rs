//! EVR — the end-to-end energy-efficient VR video system.
//!
//! This crate composes the whole reproduction: the SAS cloud side
//! (`evr-sas`), the client device with GPU or PTE rendering
//! (`evr-client`, `evr-pte`), the synthetic content and user ensembles
//! (`evr-video`, `evr-trace`, `evr-semantics`) and the device energy
//! model (`evr-energy`) — and drives every experiment of the paper's
//! evaluation (§8).
//!
//! * [`system`] — [`Variant`] (paper §8.1: `S`, `H`, `S+H` vs the
//!   baseline, plus the tiled multi-rate `T` / `T+H` — DESIGN.md §15),
//!   [`UseCase`] (online / live / offline) and the [`EvrSystem`]
//!   wiring an ingested video to client sessions.
//! * [`experiment`] — multi-user experiment runner with parallel trace
//!   replay and ledger aggregation.
//! * [`fleet`] — the deterministic parallel [`FleetRunner`] behind every
//!   sweep: byte-identical results for any worker count.
//! * [`figures`] — one function per table/figure of the paper,
//!   regenerating its data series; the `evr-bench` binaries print them.
//!
//! # Example
//!
//! ```
//! use evr_core::{EvrSystem, Variant};
//! use evr_sas::SasConfig;
//! use evr_video::library::VideoId;
//!
//! let system = EvrSystem::build(VideoId::Rs, SasConfig::tiny_for_tests(), 1.0);
//! let report = system.run_user(Variant::SPlusH, 0);
//! assert!(report.frames_total > 0);
//! ```

pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod report;
pub mod system;

pub use experiment::{
    run_variant, run_variant_resilient, write_run_report, AggregateReport, ExperimentConfig,
};
pub use fleet::FleetRunner;
pub use system::{EvrSystem, UseCase, Variant};
