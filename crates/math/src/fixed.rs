//! Runtime-parameterised signed fixed-point arithmetic with CORDIC
//! trigonometry.
//!
//! The PTE accelerator (paper §6) carries out almost the entire projective
//! transformation in fixed point: "most of the operations in the entire
//! algorithm can be carried out in fixed-point arithmetics with little loss
//! of user experience". The paper sweeps total bit-width and the integer /
//! fraction split (Figure 11) and settles on a 28-bit format with 10
//! integer bits, denoted `[28, 10]`.
//!
//! This module reproduces that datapath bit-faithfully:
//!
//! * [`FxFormat`] describes a `Q[total, int]` format (the integer width
//!   includes the sign bit).
//! * [`Fx`] is a raw fixed-point value; all arithmetic is performed through
//!   an [`FxCtx`], which knows the format, saturates every result the way
//!   hardware would, and counts saturation events for diagnostics.
//! * Trigonometry (`sin`/`cos`, `atan2`, `asin`) uses CORDIC iterations —
//!   the canonical hardware algorithm — and `sqrt` uses an exact integer
//!   square root, so results depend only on the format, never on `f64`
//!   rounding behaviour.
//!
//! # Example
//!
//! ```
//! use evr_math::fixed::FxCtx;
//!
//! let ctx = FxCtx::q28_10();
//! let a = ctx.from_f64(1.5);
//! let b = ctx.from_f64(-2.25);
//! let p = ctx.mul(a, b);
//! assert!((ctx.to_f64(p) - (-3.375)).abs() < 1e-4);
//!
//! let (s, c) = ctx.sin_cos(ctx.from_f64(0.5));
//! assert!((ctx.to_f64(s) - 0.5f64.sin()).abs() < 1e-4);
//! assert!((ctx.to_f64(c) - 0.5f64.cos()).abs() < 1e-4);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::MathError;

/// Number of CORDIC iterations used by the trigonometric kernels.
///
/// Each iteration adds roughly one bit of angular precision; 48 iterations
/// saturate every format this crate supports (≤ 63 bits).
const CORDIC_ITERS: usize = 48;

/// A `Q[total, int]` signed fixed-point format.
///
/// `total` is the full word width including the sign bit, `int` is the
/// number of integer bits *including* the sign bit, and `total - int` bits
/// hold the fraction. The paper's chosen format is `[28, 10]`.
///
/// # Example
///
/// ```
/// use evr_math::fixed::FxFormat;
/// let f = FxFormat::new(28, 10)?;
/// assert_eq!(f.frac_bits(), 18);
/// assert!(f.max_value() > 511.9);
/// # Ok::<(), evr_math::MathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FxFormat {
    total_bits: u32,
    int_bits: u32,
}

impl FxFormat {
    /// Creates a format with `total` bits, `int` of which (including sign)
    /// are integer bits.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidFixedFormat`] unless
    /// `2 <= int <= total <= 63`.
    pub fn new(total_bits: u32, int_bits: u32) -> Result<Self, MathError> {
        if int_bits < 2 || int_bits > total_bits || total_bits > 63 {
            return Err(MathError::InvalidFixedFormat { total_bits, int_bits });
        }
        Ok(FxFormat { total_bits, int_bits })
    }

    /// The paper's `[28, 10]` format.
    pub fn q28_10() -> Self {
        FxFormat { total_bits: 28, int_bits: 10 }
    }

    /// Total word width in bits, including the sign.
    pub fn total_bits(self) -> u32 {
        self.total_bits
    }

    /// Integer width in bits, including the sign.
    pub fn int_bits(self) -> u32 {
        self.int_bits
    }

    /// Fraction width in bits.
    pub fn frac_bits(self) -> u32 {
        self.total_bits - self.int_bits
    }

    /// Largest representable raw value.
    pub fn max_raw(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Smallest representable raw value.
    pub fn min_raw(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable real value.
    pub fn max_value(self) -> f64 {
        self.max_raw() as f64 / (1u64 << self.frac_bits()) as f64
    }

    /// Resolution (value of one least-significant bit).
    pub fn epsilon(self) -> f64 {
        1.0 / (1u64 << self.frac_bits()) as f64
    }
}

impl fmt::Display for FxFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q[{}, {}]", self.total_bits, self.int_bits)
    }
}

/// A raw fixed-point value. Interpretation requires the [`FxCtx`] that
/// produced it; mixing values across contexts is a logic error (debug
/// builds in [`FxCtx`] operations do not detect it — formats are erased
/// for speed, as in real hardware registers).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Fx(pub i64);

/// Arithmetic context for one fixed-point format.
///
/// Every operation saturates its result to the format's range, mimicking a
/// hardware ALU with saturating overflow, and counts saturation events
/// (useful when sweeping formats: overflow, not rounding, is what destroys
/// narrow-integer configurations in Figure 11).
#[derive(Debug)]
pub struct FxCtx {
    format: FxFormat,
    saturations: AtomicU64,
    cordic_gain_recip: i64,
    atan_table: Vec<i64>,
}

impl FxCtx {
    /// Creates a context for `format`.
    pub fn new(format: FxFormat) -> Self {
        let frac = format.frac_bits();
        // K = Π 1/sqrt(1 + 2^-2i); precomputed in f64 and quantised once.
        let mut k = 1.0f64;
        for i in 0..CORDIC_ITERS {
            k *= 1.0 / (1.0 + 2f64.powi(-2 * i as i32)).sqrt();
        }
        let atan_table = (0..CORDIC_ITERS)
            .map(|i| {
                let a = 2f64.powi(-(i as i32)).atan();
                (a * (1u64 << frac) as f64).round() as i64
            })
            .collect();
        FxCtx {
            format,
            saturations: AtomicU64::new(0),
            cordic_gain_recip: (k * (1u64 << frac) as f64).round() as i64,
            atan_table,
        }
    }

    /// Convenience constructor for the paper's `[28, 10]` format.
    pub fn q28_10() -> Self {
        FxCtx::new(FxFormat::q28_10())
    }

    /// The context's format.
    pub fn format(&self) -> FxFormat {
        self.format
    }

    /// Number of saturating operations observed so far.
    pub fn saturation_count(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }

    fn saturate(&self, wide: i128) -> Fx {
        let max = self.format.max_raw() as i128;
        let min = self.format.min_raw() as i128;
        if wide > max {
            self.saturations.fetch_add(1, Ordering::Relaxed);
            Fx(max as i64)
        } else if wide < min {
            self.saturations.fetch_add(1, Ordering::Relaxed);
            Fx(min as i64)
        } else {
            Fx(wide as i64)
        }
    }

    /// Quantises an `f64` (round-to-nearest, saturating).
    pub fn from_f64(&self, v: f64) -> Fx {
        let scaled = v * (1u64 << self.format.frac_bits()) as f64;
        if scaled.is_nan() {
            return Fx(0);
        }
        self.saturate(scaled.round() as i128)
    }

    /// Converts a fixed-point value back to `f64`.
    pub fn to_f64(&self, v: Fx) -> f64 {
        v.0 as f64 / (1u64 << self.format.frac_bits()) as f64
    }

    /// Creates a value from an integer.
    pub fn from_int(&self, v: i64) -> Fx {
        self.saturate((v as i128) << self.format.frac_bits())
    }

    /// Zero.
    pub fn zero(&self) -> Fx {
        Fx(0)
    }

    /// One.
    pub fn one(&self) -> Fx {
        self.from_int(1)
    }

    /// Saturating addition.
    pub fn add(&self, a: Fx, b: Fx) -> Fx {
        self.saturate(a.0 as i128 + b.0 as i128)
    }

    /// Saturating subtraction.
    pub fn sub(&self, a: Fx, b: Fx) -> Fx {
        self.saturate(a.0 as i128 - b.0 as i128)
    }

    /// Negation.
    pub fn neg(&self, a: Fx) -> Fx {
        self.saturate(-(a.0 as i128))
    }

    /// Absolute value.
    pub fn abs(&self, a: Fx) -> Fx {
        if a.0 < 0 {
            self.neg(a)
        } else {
            a
        }
    }

    /// Saturating multiplication with round-to-nearest.
    pub fn mul(&self, a: Fx, b: Fx) -> Fx {
        let frac = self.format.frac_bits();
        let wide = a.0 as i128 * b.0 as i128;
        let half = 1i128 << (frac - 1);
        self.saturate((wide + half) >> frac)
    }

    /// Fused multiply-accumulate `acc + a·b`, the primitive of the PTU's
    /// four-way MAC unit.
    pub fn mac(&self, acc: Fx, a: Fx, b: Fx) -> Fx {
        self.add(acc, self.mul(a, b))
    }

    /// Saturating division with round-to-nearest.
    ///
    /// Division by zero saturates to the signed extreme, as a hardware
    /// divider with a divide-by-zero flag would.
    pub fn div(&self, a: Fx, b: Fx) -> Fx {
        if b.0 == 0 {
            self.saturations.fetch_add(1, Ordering::Relaxed);
            return if a.0 >= 0 { Fx(self.format.max_raw()) } else { Fx(self.format.min_raw()) };
        }
        let frac = self.format.frac_bits();
        let num = (a.0 as i128) << (frac + 1);
        let q = num / b.0 as i128;
        // Round-to-nearest: add ±1 before halving.
        let rounded = (q + if q >= 0 { 1 } else { -1 }) >> 1;
        self.saturate(rounded)
    }

    /// Square root of a non-negative value via exact integer square root.
    ///
    /// Negative inputs clamp to zero (hardware flags-and-clamps).
    pub fn sqrt(&self, a: Fx) -> Fx {
        if a.0 <= 0 {
            return Fx(0);
        }
        let frac = self.format.frac_bits();
        // value = raw / 2^f; sqrt(value) = sqrt(raw << f) / 2^f.
        let wide = (a.0 as u128) << frac;
        self.saturate(isqrt_u128(wide) as i128)
    }

    /// Simultaneous sine and cosine via CORDIC rotation mode.
    ///
    /// The input angle may be any representable value; it is range-reduced
    /// to `[-π, π]` first. Accuracy is limited by the format's fraction
    /// width (≈ 1–2 LSBs).
    pub fn sin_cos(&self, angle: Fx) -> (Fx, Fx) {
        let frac = self.format.frac_bits();
        let pi = (std::f64::consts::PI * (1u64 << frac) as f64).round() as i64;
        let two_pi = 2 * pi;

        // Range-reduce to (-π, π].
        let mut z = angle.0 % two_pi;
        if z > pi {
            z -= two_pi;
        } else if z < -pi {
            z += two_pi;
        }

        // CORDIC converges on [-π/2, π/2]; fold the outer quadrants.
        let mut flip = false;
        let half_pi = pi / 2;
        if z > half_pi {
            z = pi - z;
            flip = true; // cos sign flips
        } else if z < -half_pi {
            z = -pi - z;
            flip = true;
        }

        let (mut x, mut y) = (self.cordic_gain_recip as i128, 0i128);
        let mut zz = z as i128;
        for (i, &atan) in self.atan_table.iter().enumerate() {
            let dx = rounding_shr(y, i);
            let dy = rounding_shr(x, i);
            if zz >= 0 {
                x -= dx;
                y += dy;
                zz -= atan as i128;
            } else {
                x += dx;
                y -= dy;
                zz += atan as i128;
            }
        }
        let cos = if flip { self.saturate(-x) } else { self.saturate(x) };
        (self.saturate(y), cos)
    }

    /// Sine.
    pub fn sin(&self, angle: Fx) -> Fx {
        self.sin_cos(angle).0
    }

    /// Cosine.
    pub fn cos(&self, angle: Fx) -> Fx {
        self.sin_cos(angle).1
    }

    /// Four-quadrant arctangent `atan2(y, x)` via CORDIC vectoring mode.
    pub fn atan2(&self, y: Fx, x: Fx) -> Fx {
        let frac = self.format.frac_bits();
        let pi = (std::f64::consts::PI * (1u64 << frac) as f64).round() as i64;

        if x.0 == 0 && y.0 == 0 {
            return Fx(0);
        }

        // Pre-rotate into the right half-plane.
        let (mut xx, mut yy, mut z0): (i128, i128, i128) = if x.0 < 0 {
            if y.0 >= 0 {
                (y.0 as i128, -(x.0 as i128), (pi / 2) as i128)
            } else {
                (-(y.0 as i128), x.0 as i128, -((pi / 2) as i128))
            }
        } else {
            (x.0 as i128, y.0 as i128, 0)
        };

        for (i, &atan) in self.atan_table.iter().enumerate() {
            let dx = rounding_shr(yy, i);
            let dy = rounding_shr(xx, i);
            if yy >= 0 {
                xx += dx;
                yy -= dy;
                z0 += atan as i128;
            } else {
                xx -= dx;
                yy += dy;
                z0 -= atan as i128;
            }
        }
        self.saturate(z0)
    }

    /// Arcsine via the identity `asin(v) = atan2(v, sqrt(1 − v²))`.
    ///
    /// Inputs outside `[-1, 1]` clamp to ±π/2.
    pub fn asin(&self, v: Fx) -> Fx {
        let one = self.one();
        let v2 = self.mul(v, v);
        if v2.0 >= one.0 {
            let frac = self.format.frac_bits();
            let half_pi = (std::f64::consts::FRAC_PI_2 * (1u64 << frac) as f64).round() as i64;
            return Fx(if v.0 >= 0 { half_pi } else { -half_pi });
        }
        let c = self.sqrt(self.sub(one, v2));
        self.atan2(v, c)
    }

    /// Multiplies a fixed-point value in `[0, 1)` by an integer scale and
    /// splits the product into an integer pixel index and a fractional
    /// filter weight (also fixed-point, in `[0, 1)`).
    ///
    /// This models the PTE's address-generation path: the Q-format ALU keeps
    /// normalized coordinates while pixel addressing happens in a wider
    /// integer unit, so large frame dimensions never overflow the narrow
    /// datapath.
    pub fn scale_to_index(&self, norm: Fx, scale: u32) -> (i64, Fx) {
        let frac = self.format.frac_bits();
        let wide = norm.0 as i128 * scale as i128;
        let idx = wide >> frac;
        let rem = wide - (idx << frac);
        (idx as i64, Fx(rem as i64))
    }
}

impl Clone for FxCtx {
    fn clone(&self) -> Self {
        FxCtx {
            format: self.format,
            saturations: AtomicU64::new(self.saturations.load(Ordering::Relaxed)),
            cordic_gain_recip: self.cordic_gain_recip,
            atan_table: self.atan_table.clone(),
        }
    }
}

/// Arithmetic right shift with round-to-nearest, the micro-rotation
/// primitive of the CORDIC datapath. A plain arithmetic shift floors
/// towards −∞ and biases negative operands by up to one LSB per iteration;
/// rounding keeps the accumulated CORDIC error within a couple of LSBs.
fn rounding_shr(v: i128, shift: usize) -> i128 {
    if shift == 0 {
        v
    } else {
        (v + (1i128 << (shift - 1))) >> shift
    }
}

/// Exact integer square root (floor) for `u128`.
fn isqrt_u128(n: u128) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as u128;
    // Newton correction to guarantee floor semantics despite f64 rounding.
    while x > 0 && x * x > n {
        x -= 1;
    }
    while (x + 1) * (x + 1) <= n {
        x += 1;
    }
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn format_validation() {
        assert!(FxFormat::new(28, 10).is_ok());
        assert!(FxFormat::new(3, 4).is_err());
        assert!(FxFormat::new(64, 10).is_err());
        assert!(FxFormat::new(10, 1).is_err());
    }

    #[test]
    fn q28_10_properties() {
        let f = FxFormat::q28_10();
        assert_eq!(f.total_bits(), 28);
        assert_eq!(f.int_bits(), 10);
        assert_eq!(f.frac_bits(), 18);
        assert!((f.max_value() - 511.999996).abs() < 1e-3);
        assert!((f.epsilon() - 2f64.powi(-18)).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_accuracy() {
        let ctx = FxCtx::q28_10();
        for v in [-100.5, -0.001, 0.0, 0.333333, 1.0, 511.0] {
            let q = ctx.from_f64(v);
            assert!((ctx.to_f64(q) - v).abs() <= ctx.format().epsilon() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn saturation_on_overflow() {
        let ctx = FxCtx::q28_10();
        let big = ctx.from_f64(500.0);
        assert_eq!(ctx.saturation_count(), 0);
        let sum = ctx.add(big, big);
        assert_eq!(ctx.saturation_count(), 1);
        assert!((ctx.to_f64(sum) - ctx.format().max_value()).abs() < 1e-6);
    }

    #[test]
    fn mul_rounding() {
        let ctx = FxCtx::q28_10();
        let a = ctx.from_f64(3.5);
        let b = ctx.from_f64(-2.0);
        assert!((ctx.to_f64(ctx.mul(a, b)) + 7.0).abs() < 1e-5);
    }

    #[test]
    fn div_by_zero_saturates() {
        let ctx = FxCtx::q28_10();
        let one = ctx.one();
        assert_eq!(ctx.div(one, ctx.zero()).0, ctx.format().max_raw());
        assert_eq!(ctx.div(ctx.neg(one), ctx.zero()).0, ctx.format().min_raw());
        assert_eq!(ctx.saturation_count(), 2);
    }

    #[test]
    fn sqrt_exactness() {
        let ctx = FxCtx::q28_10();
        for v in [0.0, 0.25, 1.0, 2.0, 100.0, 510.0] {
            let r = ctx.to_f64(ctx.sqrt(ctx.from_f64(v)));
            assert!((r - v.sqrt()).abs() < 2e-3, "sqrt({v}) = {r}");
        }
        assert_eq!(ctx.sqrt(ctx.from_f64(-4.0)).0, 0);
    }

    #[test]
    fn cordic_sin_cos_accuracy() {
        let ctx = FxCtx::q28_10();
        for i in -12..=12 {
            let a = i as f64 * 0.5;
            let (s, c) = ctx.sin_cos(ctx.from_f64(a));
            assert!((ctx.to_f64(s) - a.sin()).abs() < 1e-4, "sin({a})");
            assert!((ctx.to_f64(c) - a.cos()).abs() < 1e-4, "cos({a})");
        }
    }

    #[test]
    fn cordic_atan2_accuracy() {
        let ctx = FxCtx::q28_10();
        let cases = [
            (1.0, 1.0),
            (1.0, -1.0),
            (-1.0, 1.0),
            (-1.0, -1.0),
            (0.5, 2.0),
            (-3.0, 0.2),
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, 0.0),
        ];
        for (y, x) in cases {
            let r = ctx.to_f64(ctx.atan2(ctx.from_f64(y), ctx.from_f64(x)));
            assert!((r - y.atan2(x)).abs() < 2e-4, "atan2({y}, {x}) = {r} vs {}", y.atan2(x));
        }
    }

    #[test]
    fn asin_accuracy_and_clamping() {
        let ctx = FxCtx::q28_10();
        for v in [-0.99, -0.5, 0.0, 0.3, 0.87] {
            let r = ctx.to_f64(ctx.asin(ctx.from_f64(v)));
            assert!((r - v.asin()).abs() < 5e-4, "asin({v}) = {r}");
        }
        let over = ctx.to_f64(ctx.asin(ctx.from_f64(1.5)));
        assert!((over - std::f64::consts::FRAC_PI_2).abs() < 1e-4);
    }

    #[test]
    fn scale_to_index_splits_product() {
        let ctx = FxCtx::q28_10();
        let norm = ctx.from_f64(0.75);
        let (idx, rem) = ctx.scale_to_index(norm, 3840);
        assert_eq!(idx, 2880);
        assert!(ctx.to_f64(rem).abs() < 1e-3);

        let norm = ctx.from_f64(0.5001);
        let (idx, rem) = ctx.scale_to_index(norm, 1000);
        assert_eq!(idx, 500);
        assert!((ctx.to_f64(rem) - 0.1).abs() < 0.01);
    }

    #[test]
    fn narrow_integer_format_overflows_on_two_pi() {
        // With only 3 integer bits (max 4.0), 2π is not representable —
        // exactly the failure mode behind Figure 11's high-error designs.
        let ctx = FxCtx::new(FxFormat::new(28, 3).unwrap());
        let two_pi = ctx.from_f64(std::f64::consts::TAU);
        assert!(ctx.saturation_count() > 0);
        assert!((ctx.to_f64(two_pi) - ctx.format().max_value()).abs() < 1e-3);
    }

    #[test]
    fn wider_fraction_is_more_accurate() {
        let coarse = FxCtx::new(FxFormat::new(20, 10).unwrap());
        let fine = FxCtx::new(FxFormat::new(48, 10).unwrap());
        let v = 0.123456789;
        let e_coarse = (coarse.to_f64(coarse.from_f64(v)) - v).abs();
        let e_fine = (fine.to_f64(fine.from_f64(v)) - v).abs();
        assert!(e_fine < e_coarse);
    }

    #[test]
    fn isqrt_edge_cases() {
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(3), 1);
        assert_eq!(isqrt_u128(4), 2);
        assert_eq!(isqrt_u128(u64::MAX as u128), 4294967295);
    }

    #[test]
    fn ctx_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FxCtx>();
    }

    proptest! {
        #[test]
        fn prop_add_matches_f64(a in -200.0f64..200.0, b in -200.0f64..200.0) {
            let ctx = FxCtx::q28_10();
            let r = ctx.to_f64(ctx.add(ctx.from_f64(a), ctx.from_f64(b)));
            prop_assert!((r - (a + b)).abs() < 1e-4);
        }

        #[test]
        fn prop_mul_matches_f64(a in -20.0f64..20.0, b in -20.0f64..20.0) {
            let ctx = FxCtx::q28_10();
            let r = ctx.to_f64(ctx.mul(ctx.from_f64(a), ctx.from_f64(b)));
            prop_assert!((r - a * b).abs() < 1e-3);
        }

        #[test]
        fn prop_div_matches_f64(a in -100.0f64..100.0, b in 0.01f64..100.0) {
            // Quotients beyond the Q[28,10] range legitimately saturate.
            prop_assume!((a / b).abs() < 500.0);
            let ctx = FxCtx::q28_10();
            let r = ctx.to_f64(ctx.div(ctx.from_f64(a), ctx.from_f64(b)));
            // The quantisation of b dominates the error for small divisors:
            // |d(a/b)/db| · ε/2 plus rounding of the quotient itself.
            let tol = (a / b / b).abs() * ctx.format().epsilon() + 1e-2;
            prop_assert!((r - a / b).abs() < tol, "{a}/{b} = {r}");
        }

        #[test]
        fn prop_sin_cos_pythagorean(a in -6.0f64..6.0) {
            let ctx = FxCtx::q28_10();
            let (s, c) = ctx.sin_cos(ctx.from_f64(a));
            let (sv, cv) = (ctx.to_f64(s), ctx.to_f64(c));
            prop_assert!((sv * sv + cv * cv - 1.0).abs() < 1e-3);
        }

        #[test]
        fn prop_atan2_matches_f64(y in -10.0f64..10.0, x in -10.0f64..10.0) {
            prop_assume!(y.abs() > 1e-3 || x.abs() > 1e-3);
            let ctx = FxCtx::q28_10();
            let r = ctx.to_f64(ctx.atan2(ctx.from_f64(y), ctx.from_f64(x)));
            prop_assert!((r - y.atan2(x)).abs() < 1e-3);
        }

        #[test]
        fn prop_sqrt_matches_f64(v in 0.0f64..500.0) {
            let ctx = FxCtx::q28_10();
            let r = ctx.to_f64(ctx.sqrt(ctx.from_f64(v)));
            prop_assert!((r - v.sqrt()).abs() < 3e-3);
        }

        #[test]
        fn prop_values_stay_in_range(a in -600.0f64..600.0, b in -600.0f64..600.0) {
            let ctx = FxCtx::q28_10();
            let results = [
                ctx.add(ctx.from_f64(a), ctx.from_f64(b)),
                ctx.sub(ctx.from_f64(a), ctx.from_f64(b)),
                ctx.mul(ctx.from_f64(a), ctx.from_f64(b)),
            ];
            for r in results {
                prop_assert!(r.0 <= ctx.format().max_raw());
                prop_assert!(r.0 >= ctx.format().min_raw());
            }
        }
    }
}
