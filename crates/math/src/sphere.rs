//! Spherical geometry: coordinates, great circles and solid angles.
//!
//! 360° content lives on the unit sphere; this module provides the
//! longitude/latitude parameterisation used by the equirectangular
//! projection and the great-circle math used by the FOV checker and the
//! user behaviour model.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Radians, Vec3};

/// A point on the unit sphere in longitude/latitude form.
///
/// * `lon` (longitude, θ): angle around the up axis in `[-π, π)`; 0 is the
///   forward direction, positive is to the right.
/// * `lat` (latitude, φ): elevation in `[-π/2, π/2]`; positive is up.
///
/// # Example
///
/// ```
/// use evr_math::{SphericalCoord, Vec3, Degrees};
/// let p = SphericalCoord::new(Degrees(90.0).to_radians(), Degrees(0.0).to_radians());
/// assert!((p.to_unit_vector() - Vec3::RIGHT).norm() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SphericalCoord {
    /// Longitude θ, wrapped to `[-π, π)`.
    pub lon: Radians,
    /// Latitude φ, clamped to `[-π/2, π/2]`.
    pub lat: Radians,
}

impl SphericalCoord {
    /// Creates a coordinate, wrapping the longitude and clamping the latitude.
    pub fn new(lon: Radians, lat: Radians) -> Self {
        SphericalCoord {
            lon: lon.wrapped(),
            lat: Radians(lat.0.clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2)),
        }
    }

    /// Converts to a unit direction vector.
    pub fn to_unit_vector(self) -> Vec3 {
        let (sl, cl) = (self.lon.0.sin(), self.lon.0.cos());
        let (sp, cp) = (self.lat.0.sin(), self.lat.0.cos());
        Vec3::new(cp * sl, sp, cp * cl)
    }

    /// Builds a coordinate from a direction vector (need not be unit length).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MathError::ZeroVector`] for a (near-)zero vector.
    pub fn from_vector(v: Vec3) -> Result<Self, crate::MathError> {
        let u = v.normalized()?;
        Ok(SphericalCoord {
            lon: Radians(u.x.atan2(u.z)),
            lat: Radians(u.y.clamp(-1.0, 1.0).asin()),
        })
    }

    /// Great-circle (central) angle to another coordinate, in `[0, π]`.
    ///
    /// ```
    /// use evr_math::{SphericalCoord, Degrees, Radians};
    /// let a = SphericalCoord::new(Radians(0.0), Radians(0.0));
    /// let b = SphericalCoord::new(Degrees(90.0).to_radians(), Radians(0.0));
    /// assert!((a.great_circle_angle(b).to_degrees().0 - 90.0).abs() < 1e-9);
    /// ```
    pub fn great_circle_angle(self, other: SphericalCoord) -> Radians {
        let a = self.to_unit_vector();
        let b = other.to_unit_vector();
        Radians(a.dot(b).clamp(-1.0, 1.0).acos())
    }
}

impl fmt::Display for SphericalCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(lon {:.2}°, lat {:.2}°)", self.lon.to_degrees().0, self.lat.to_degrees().0)
    }
}

/// Solid angle (steradians) of a rectangular field of view of
/// `h_fov` × `v_fov` (paper §2: a 120°×90° FOV is one sixth of the sphere).
///
/// Computed exactly for a "spherical rectangle" defined by two angular
/// extents ≤ 180°: `Ω = 4·asin(sin(h/2)·sin(v/2))`. Extents beyond 180°
/// are clamped to 180° (the formula is only defined for spherical
/// rectangles; a 180°×180° view is already a hemisphere).
///
/// The paper estimates a 120°×90° FOV as one sixth of the sphere using the
/// planar approximation `(120/360)·(90/180)`; the exact spherical-rectangle
/// value is slightly larger (≈ 21%).
///
/// # Example
///
/// ```
/// use evr_math::{sphere::fov_solid_angle, Degrees};
/// let sr = fov_solid_angle(Degrees(120.0).to_radians(), Degrees(90.0).to_radians());
/// let fraction = sr / (4.0 * std::f64::consts::PI);
/// assert!((fraction - 0.21).abs() < 0.01);
/// ```
pub fn fov_solid_angle(h_fov: Radians, v_fov: Radians) -> f64 {
    let h = h_fov.0.clamp(0.0, std::f64::consts::PI);
    let v = v_fov.0.clamp(0.0, std::f64::consts::PI);
    4.0 * ((h / 2.0).sin() * (v / 2.0).sin()).asin()
}

/// Moves `from` towards `to` along the great circle by `step` radians,
/// without overshooting. Used by the behaviour model's smooth pursuit.
///
/// # Example
///
/// ```
/// use evr_math::{sphere::step_towards, Vec3, Radians};
/// let next = step_towards(Vec3::FORWARD, Vec3::RIGHT, Radians(std::f64::consts::FRAC_PI_4));
/// let expect = Vec3::new(1.0, 0.0, 1.0).normalized().unwrap();
/// assert!((next - expect).norm() < 1e-9);
/// ```
pub fn step_towards(from: Vec3, to: Vec3, step: Radians) -> Vec3 {
    let total = from.dot(to).clamp(-1.0, 1.0).acos();
    if total < 1e-12 || step.0 >= total {
        return to;
    }
    from.slerp_by_angle(to, step.0 / total, total)
}

/// The fraction of the sphere covered by a spherical cap of angular
/// radius `r`: `(1 − cos r) / 2`.
pub fn cap_area_fraction(r: Radians) -> f64 {
    (1.0 - r.0.cos()) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Degrees;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn cardinal_directions() {
        let f = SphericalCoord::new(Radians(0.0), Radians(0.0));
        assert!((f.to_unit_vector() - Vec3::FORWARD).norm() < 1e-12);
        let up = SphericalCoord::new(Radians(0.0), Radians(FRAC_PI_2));
        assert!((up.to_unit_vector() - Vec3::UP).norm() < 1e-12);
        let back = SphericalCoord::new(Radians(PI - 1e-12), Radians(0.0));
        assert!((back.to_unit_vector() + Vec3::FORWARD).norm() < 1e-6);
    }

    #[test]
    fn from_vector_roundtrip() {
        let c = SphericalCoord::new(Degrees(123.0).to_radians(), Degrees(-41.0).to_radians());
        let back = SphericalCoord::from_vector(c.to_unit_vector()).unwrap();
        assert!((back.lon.0 - c.lon.0).abs() < 1e-9);
        assert!((back.lat.0 - c.lat.0).abs() < 1e-9);
    }

    #[test]
    fn from_zero_vector_errors() {
        assert!(SphericalCoord::from_vector(Vec3::ZERO).is_err());
    }

    #[test]
    fn solid_angle_of_hemisphere() {
        // A 180°×180° FOV is exactly a hemisphere (2π steradians), and
        // wider requests clamp to it.
        let sr = fov_solid_angle(Radians(PI), Radians(PI));
        assert!((sr - 2.0 * PI).abs() < 1e-9);
        assert!((fov_solid_angle(Radians(2.0 * PI), Radians(PI)) - sr).abs() < 1e-12);
    }

    #[test]
    fn step_towards_does_not_overshoot() {
        let next = step_towards(Vec3::FORWARD, Vec3::RIGHT, Radians(10.0));
        assert!((next - Vec3::RIGHT).norm() < 1e-12);
    }

    #[test]
    fn cap_fractions() {
        assert!((cap_area_fraction(Radians(PI)) - 1.0).abs() < 1e-12);
        assert!((cap_area_fraction(Radians(FRAC_PI_2)) - 0.5).abs() < 1e-12);
        assert!(cap_area_fraction(Radians(0.0)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_unit_vector_roundtrip(lon in -3.1f64..3.1, lat in -1.55f64..1.55) {
            let c = SphericalCoord::new(Radians(lon), Radians(lat));
            let back = SphericalCoord::from_vector(c.to_unit_vector()).unwrap();
            // acos near 1.0 amplifies f64 rounding to ~1e-8; allow 1e-6.
            prop_assert!(c.great_circle_angle(back).0 < 1e-6);
        }

        #[test]
        fn prop_great_circle_triangle_inequality(
            a_lon in -3.0f64..3.0, a_lat in -1.5f64..1.5,
            b_lon in -3.0f64..3.0, b_lat in -1.5f64..1.5,
            c_lon in -3.0f64..3.0, c_lat in -1.5f64..1.5,
        ) {
            let a = SphericalCoord::new(Radians(a_lon), Radians(a_lat));
            let b = SphericalCoord::new(Radians(b_lon), Radians(b_lat));
            let c = SphericalCoord::new(Radians(c_lon), Radians(c_lat));
            prop_assert!(a.great_circle_angle(c).0 <= a.great_circle_angle(b).0 + b.great_circle_angle(c).0 + 1e-6);
        }

        #[test]
        fn prop_step_towards_advances(step in 0.001f64..0.5) {
            let target = Vec3::RIGHT;
            let next = step_towards(Vec3::FORWARD, target, Radians(step));
            let before = Vec3::FORWARD.dot(target);
            let after = next.dot(target);
            prop_assert!(after > before);
            prop_assert!((next.norm() - 1.0).abs() < 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_step_towards_matches_the_two_acos_oracle(
            (lon, lat) in (-3.2f64..3.2, -1.6f64..1.6),
            (to_lon, to_lat) in (-3.2f64..3.2, -1.6f64..1.6),
            eps in 1e-9f64..1e-6,
            frac in 0.0f64..1.0,
        ) {
            let from = SphericalCoord::new(Radians(lon), Radians(lat)).to_unit_vector();
            let to = SphericalCoord::new(Radians(to_lon), Radians(to_lat)).to_unit_vector();
            let nudged = |v: Vec3| {
                let s = SphericalCoord::from_vector(v).unwrap();
                SphericalCoord::new(s.lon, Radians(s.lat.0 + eps)).to_unit_vector()
            };
            let total = from.dot(to).clamp(-1.0, 1.0).acos();
            let cases = [
                // A general pair, part-way and past the target.
                (to, frac * total),
                (to, total * (1.0 + frac)),
                (to, total),
                // Coincident: `total < 1e-12`.
                (from, frac),
                // Nearly parallel: the `total < 1e-6` lerp branch.
                (nudged(from), frac * eps),
                // Near-antipodal.
                (nudged(-from), frac * std::f64::consts::PI),
                (-from, frac * std::f64::consts::PI),
            ];
            for (to, step) in cases {
                let got = step_towards(from, to, Radians(step));
                let want = oracle::step_towards(from, to, Radians(step));
                prop_assert_eq!(bits(got), bits(want), "{from} -> {to} by {step}");
                prop_assert_eq!(bits(from.slerp(to, frac)), bits(oracle::slerp(from, to, frac)));
            }
        }
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    /// `step_towards` and `Vec3::slerp` as they were before `step_towards`
    /// reused its angle: `acos` once here and once more inside `slerp`.
    mod oracle {
        use crate::{Radians, Vec3};

        pub fn slerp(a: Vec3, b: Vec3, t: f64) -> Vec3 {
            let dot = a.dot(b).clamp(-1.0, 1.0);
            let theta = dot.acos();
            if theta < 1e-6 {
                return a.lerp(b, t).normalized().unwrap_or(a);
            }
            let sin_theta = theta.sin();
            let wa = ((1.0 - t) * theta).sin() / sin_theta;
            let wb = (t * theta).sin() / sin_theta;
            a * wa + b * wb
        }

        pub fn step_towards(from: Vec3, to: Vec3, step: Radians) -> Vec3 {
            let total = from.dot(to).clamp(-1.0, 1.0).acos();
            if total < 1e-12 || step.0 >= total {
                return to;
            }
            slerp(from, to, step.0 / total)
        }
    }
}
