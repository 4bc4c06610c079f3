//! The projective-transformation (PT) pipeline — the paper's "VR tax".
//!
//! Every 360° frame displayed on a head-mounted display goes through the
//! three PT stages of paper §6.1:
//!
//! 1. **Perspective update** ([`perspective`]) — for each output pixel
//!    `P(i, j)` of the field-of-view (FOV) frame, compute the point `P′` on
//!    the unit sphere it corresponds to under the current head orientation.
//! 2. **Mapping** ([`mapping`]) — project `P′` to the point `P″ = (u, v)`
//!    in the planar input frame, under one of three projection methods:
//!    equirectangular (ERP), cubemap (CMP) or equi-angular cubemap (EAC).
//!    The implementation mirrors the paper's modular hardware decomposition
//!    (Fig. 9): `C2S`, `C2F` and per-method linear scalings `LS`.
//! 3. **Filtering** ([`filter`]) — reconstruct the pixel value at `(u, v)`
//!    by nearest-neighbour or bilinear sampling.
//!
//! Two complete implementations are provided:
//!
//! * [`transform::Transformer`] — the `f64` reference (what a GPU shader
//!   computes), also used to *generate* content via the inverse mappings.
//! * [`fixed::FixedTransformer`] — the bit-faithful fixed-point datapath of
//!   the PTE accelerator, parameterised by any `Q[total, int]` format so
//!   the Figure 11 bit-width sweep can be reproduced.
//!
//! # Example
//!
//! ```
//! use evr_projection::{FovSpec, Projection, FilterMode, Viewport, transform::Transformer};
//! use evr_projection::pixel::{ImageBuffer, Rgb};
//! use evr_math::EulerAngles;
//!
//! // A tiny equirectangular source: left hemisphere red, right green.
//! let src = ImageBuffer::from_fn(64, 32, |x, _| {
//!     if x < 32 { Rgb::new(255, 0, 0) } else { Rgb::new(0, 255, 0) }
//! });
//! let t = Transformer::new(
//!     Projection::Erp,
//!     FilterMode::Nearest,
//!     FovSpec::from_degrees(90.0, 90.0),
//!     Viewport::new(16, 16),
//! );
//! let fov = t.render_fov(&src, EulerAngles::default());
//! assert_eq!(fov.image.width(), 16);
//! ```

pub mod error;
pub mod filter;
pub mod fixed;
pub mod fov;
pub mod lut;
pub mod mapping;
pub mod perspective;
pub mod pixel;
pub mod transform;

pub use error::ProjectionError;
pub use filter::FilterMode;
pub use fixed::FixedTransformer;
pub use fov::{FovFrameMeta, FovSpec, Viewport};
pub use lut::{LutStats, SamplingMap, SamplingMapCache};
pub use mapping::Projection;
pub use pixel::{ImageBuffer, PixelSource, Rgb};
pub use transform::{FovFrame, Transformer};
