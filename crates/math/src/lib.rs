//! Math substrate for the EVR reproduction.
//!
//! This crate provides the geometric and numeric foundations shared by every
//! other crate in the workspace:
//!
//! * [`angle`] — strongly-typed angles ([`Degrees`], [`Radians`]) with
//!   wrapping semantics appropriate for spherical video.
//! * [`mod@vec`] — small fixed-size vectors ([`Vec2`], [`Vec3`]).
//! * [`mat`] — 3×3 rotation matrices ([`Mat3`]) mirroring the two sparse
//!   rotation matrices used by the PTE's *perspective update* stage.
//! * [`quat`] — unit quaternions for composing and interpolating head poses.
//! * [`round`] — `f64` → `i16`/`u8` rounding equal to `f64::round` plus a
//!   clamp, without the libm call, for the codec and rendering kernels.
//! * [`sphere`] — spherical ↔ Cartesian conversions and great-circle
//!   geometry used by the FOV checker and the behaviour model.
//! * [`fixed`] — a runtime-parameterised signed fixed-point engine
//!   (`Q[total, int]`) with CORDIC trigonometry, used both for the paper's
//!   Figure 11 bit-width sweep and as the PTE's bit-exact datapath.
//!
//! # Example
//!
//! ```
//! use evr_math::{Degrees, EulerAngles, Vec3};
//!
//! // A head pose looking 90° to the right maps the forward axis onto +x.
//! let pose = EulerAngles::new(Degrees(90.0).to_radians(), Default::default(), Default::default());
//! let rotated = pose.to_matrix() * Vec3::FORWARD;
//! assert!((rotated - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
//! ```

pub mod angle;
pub mod error;
pub mod fixed;
pub mod mat;
pub mod quat;
pub mod round;
pub mod sphere;
pub mod vec;

pub use angle::{Degrees, EulerAngles, Radians};
pub use error::MathError;
pub use fixed::{Fx, FxCtx, FxFormat};
pub use mat::Mat3;
pub use quat::Quat;
pub use sphere::SphericalCoord;
pub use vec::{Vec2, Vec3};
