//! Head-orientation traces and the synthetic 59-user behaviour model.
//!
//! The paper's characterisation and evaluation are driven by the Corbillon
//! et al. dataset: head-movement traces of **59 real users** watching the
//! benchmark 360° videos, replayed to emulate IMU readings (§8.1). That
//! dataset cannot ship with a from-scratch reproduction, so this crate
//! generates trace ensembles from a parametric *object-tracking behaviour
//! model* — a state machine alternating between smooth pursuit of scene
//! objects, saccadic switches, and free exploration — calibrated per video
//! so that the ensemble statistics match what the paper reports:
//!
//! * users' viewing areas cover at least one annotated object in 60–100%
//!   of frames (Fig. 5), and
//! * users spend about 47% of their time in tracking episodes of ≥ 5 s
//!   (Fig. 6).
//!
//! [`analysis`] implements the measurements behind those two figures;
//! [`sample`] provides the trace containers and IMU-style resampling.
//!
//! # Example
//!
//! ```
//! use evr_trace::behavior::{generate_user_trace, params_for};
//! use evr_video::library::{scene_for, VideoId};
//!
//! let scene = scene_for(VideoId::Rhino);
//! let trace = generate_user_trace(&scene, &params_for(VideoId::Rhino), 7, 10.0, 30.0);
//! // One sample per frame, inclusive of both endpoints.
//! assert_eq!(trace.len(), 301);
//! ```

pub mod analysis;
pub mod behavior;
pub mod dataset;
pub mod io;
pub mod sample;

pub use behavior::{generate_user_trace, params_for, BehaviorParams, ObjectTracks};
pub use dataset::UserStudy;
pub use sample::{HeadTrace, PoseSample};
