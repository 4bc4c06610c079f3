//! Small fixed-size vectors.
//!
//! [`Vec3`] is the workhorse of the projection pipeline: view rays, sphere
//! points and object directions are all unit `Vec3`s in a right-handed
//! view space where `+x` is right, `+y` is up and `+z` is forward.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

use crate::MathError;

/// A 2-D vector, used for planar frame coordinates `(u, v)`.
///
/// # Example
///
/// ```
/// use evr_math::Vec2;
/// let p = Vec2::new(3.0, 4.0);
/// assert!((p.norm() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from components.
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A 3-D vector in right-handed view space (`+x` right, `+y` up, `+z` forward).
///
/// # Example
///
/// ```
/// use evr_math::Vec3;
/// let v = Vec3::new(1.0, 2.0, 2.0);
/// assert!((v.norm() - 3.0).abs() < 1e-12);
/// assert!((v.normalized().unwrap().norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec3 {
    /// Rightward component.
    pub x: f64,
    /// Upward component.
    pub y: f64,
    /// Forward component.
    pub z: f64,
}

impl Vec3 {
    /// The forward axis `(0, 0, 1)` — the direction an identity head pose views.
    pub const FORWARD: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };
    /// The up axis `(0, 1, 0)`.
    pub const UP: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// The right axis `(1, 0, 0)`.
    pub const RIGHT: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    ///
    /// ```
    /// use evr_math::Vec3;
    /// assert_eq!(Vec3::RIGHT.cross(Vec3::UP), Vec3::FORWARD);
    /// ```
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Returns the unit vector pointing in the same direction.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ZeroVector`] if the norm is smaller than `1e-12`.
    pub fn normalized(self) -> Result<Vec3, MathError> {
        let n = self.norm();
        if n < 1e-12 {
            Err(MathError::ZeroVector)
        } else {
            Ok(self / n)
        }
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ZeroVector`] if either vector is (near-)zero.
    pub fn angle_to(self, rhs: Vec3) -> Result<f64, MathError> {
        let a = self.normalized()?;
        let b = rhs.normalized()?;
        Ok(a.dot(b).clamp(-1.0, 1.0).acos())
    }

    /// Component-wise linear interpolation: `self * (1 - t) + rhs * t`.
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self * (1.0 - t) + rhs * t
    }

    /// Spherical linear interpolation between two unit vectors.
    ///
    /// Falls back to normalized lerp when the vectors are nearly parallel.
    /// Used by the behaviour model to move gaze smoothly between targets.
    pub fn slerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self.slerp_by_angle(rhs, t, self.dot(rhs).clamp(-1.0, 1.0).acos())
    }

    /// [`Vec3::slerp`] for a caller that already holds the angle `theta`
    /// between the two vectors, `self.dot(rhs).clamp(-1.0, 1.0).acos()`,
    /// so it is not computed twice.
    pub(crate) fn slerp_by_angle(self, rhs: Vec3, t: f64, theta: f64) -> Vec3 {
        if theta < 1e-6 {
            return self.lerp(rhs, t).normalized().unwrap_or(self);
        }
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        self * a + rhs * b
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// Indexes components in `x, y, z` order.
    ///
    /// # Panics
    ///
    /// Panics if `idx > 2`.
    fn index(&self, idx: usize) -> &f64 {
        match idx {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {idx}"),
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_products_follow_right_hand_rule() {
        assert_eq!(Vec3::RIGHT.cross(Vec3::UP), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(Vec3::UP.cross(Vec3::FORWARD), Vec3::RIGHT);
        assert_eq!(Vec3::FORWARD.cross(Vec3::RIGHT), Vec3::UP);
    }

    #[test]
    fn normalize_zero_vector_errors() {
        assert_eq!(Vec3::ZERO.normalized(), Err(MathError::ZeroVector));
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        let a = Vec3::RIGHT.angle_to(Vec3::UP).unwrap();
        assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn slerp_endpoints() {
        let a = Vec3::FORWARD;
        let b = Vec3::RIGHT;
        assert!((a.slerp(b, 0.0) - a).norm() < 1e-12);
        assert!((a.slerp(b, 1.0) - b).norm() < 1e-12);
    }

    #[test]
    fn slerp_midpoint_of_quarter_turn() {
        let m = Vec3::FORWARD.slerp(Vec3::RIGHT, 0.5);
        let expect = Vec3::new(1.0, 0.0, 1.0).normalized().unwrap();
        assert!((m - expect).norm() < 1e-12);
    }

    #[test]
    fn slerp_handles_nearly_parallel() {
        let a = Vec3::FORWARD;
        let b = Vec3::new(1e-9, 0.0, 1.0).normalized().unwrap();
        let m = a.slerp(b, 0.5);
        assert!((m.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    proptest! {
        #[test]
        fn prop_normalized_is_unit(x in -100.0f64..100.0, y in -100.0f64..100.0, z in -100.0f64..100.0) {
            let v = Vec3::new(x, y, z);
            if let Ok(u) = v.normalized() {
                prop_assert!((u.norm() - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_cross_is_orthogonal(ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
                                     bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            prop_assert!(c.dot(a).abs() < 1e-6);
            prop_assert!(c.dot(b).abs() < 1e-6);
        }

        #[test]
        fn prop_slerp_stays_unit(t in 0.0f64..1.0, yaw in -3.0f64..3.0) {
            let a = Vec3::FORWARD;
            let b = Vec3::new(yaw.sin(), 0.0, yaw.cos());
            let m = a.slerp(b, t);
            prop_assert!((m.norm() - 1.0).abs() < 1e-6);
        }
    }
}
