//! `f64` → integer rounding without the libm call.
//!
//! `f64::round` rounds half away from zero. Baseline x86-64 has no
//! SSE4.1 `roundsd`, so it compiles to a call into libm, which the
//! codec, scene and filtering kernels would pay once per coefficient or
//! per channel. Each helper here equals `x.round().clamp(MIN, MAX) as T`
//! for every `f64`, NaN and infinities included; the helpers' docs say
//! why.

/// `x.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16`, without
/// calling libm.
///
/// Truncates with a saturating cast and steps one away from zero when
/// the fraction reaches one half. For `|x| < 2^31` the truncation `t` is
/// exact and so is `x − t` (every `f64` fraction below `2^52` is
/// representable), so the step is exactly the half-away rule. Larger
/// magnitudes and infinities saturate the cast and land outside the
/// range either way, and NaN truncates to 0 with a NaN fraction that
/// steps nowhere, which is what `NaN as` gives.
///
/// # Example
///
/// ```
/// use evr_math::round::round_to_i16;
/// assert_eq!(round_to_i16(-2.5), -3);
/// assert_eq!(round_to_i16(1e9), i16::MAX);
/// assert_eq!(round_to_i16(f64::NAN), 0);
/// ```
#[inline]
pub fn round_to_i16(x: f64) -> i16 {
    let t = x as i32;
    let f = x - f64::from(t);
    let r = i64::from(t) + i64::from(f >= 0.5) - i64::from(f <= -0.5);
    r.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// `x.round().clamp(0.0, 255.0) as u8`, without calling libm.
///
/// A compare, a `min`, an add and one truncating cast. Below ½ the
/// rounded value is at most 0, and NaN casts to 0, so both give 0; from
/// 254.5 up the rounded value is at least 255. In between, `x` and ½ are both multiples of `x`'s ulp, so
/// `x + ½` is exact while it stays in `x`'s binade; past the next power
/// of two `2^k` it rounds into `[2^k, 2^k + ½]`. Either way the
/// truncation is `⌊x + ½⌋`, which for a positive `x` is rounding half
/// away from zero.
///
/// # Example
///
/// ```
/// use evr_math::round::round_to_u8;
/// assert_eq!(round_to_u8(254.5), 255);
/// assert_eq!(round_to_u8(-0.5), 0);
/// assert_eq!(round_to_u8(300.0), 255);
/// ```
#[inline]
pub fn round_to_u8(x: f64) -> u8 {
    if x >= 0.5 {
        (x.min(254.5) + 0.5) as u8
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn i16_oracle(x: f64) -> i16 {
        x.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16
    }

    fn u8_oracle(x: f64) -> u8 {
        x.round().clamp(0.0, 255.0) as u8
    }

    /// Signed zeros, ties and their neighbours, both ends of both target
    /// ranges, the last doubles below powers of two (where `x + ½`
    /// leaves `x`'s binade), the saturation points of the `i32` cast,
    /// values past `2^52` where every `f64` is an integer, infinities
    /// and NaN.
    const EDGES: [f64; 37] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        0.49999999999999994,
        -0.49999999999999994,
        1.5,
        -2.5,
        1.9999999999999998,
        127.99999999999999,
        127.49999999999999,
        254.49999999999997,
        254.5,
        255.5,
        255.49999999999997,
        256.0,
        -1.0,
        32766.5,
        32767.5,
        -32768.5,
        -32767.5,
        2147483647.0,
        2147483647.5,
        2147483648.0,
        -2147483648.5,
        -2147483649.0,
        4503599627370495.5,
        9007199254740993.0,
        1e300,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
    ];

    #[test]
    fn round_to_i16_matches_f64_round_at_the_edges() {
        for x in EDGES {
            assert_eq!(round_to_i16(x), i16_oracle(x), "{x:e}");
        }
    }

    #[test]
    fn round_to_u8_matches_f64_round_at_the_edges() {
        for x in EDGES {
            assert_eq!(round_to_u8(x), u8_oracle(x), "{x:e}");
        }
    }

    /// Every multiple of 2^-10 in [−1, 257), plus each half-integer
    /// there and its two neighbouring doubles: every tie and every
    /// saturation step of the u8 range.
    #[test]
    fn round_to_u8_matches_f64_round_on_a_dense_sweep() {
        for k in -1024..257 * 1024 {
            let x = f64::from(k) / 1024.0;
            assert_eq!(round_to_u8(x), u8_oracle(x), "{x}");
        }
        for k in -1..257 {
            let half = f64::from(k) + 0.5;
            for x in [half, f64::from_bits(half.to_bits() - 1), f64::from_bits(half.to_bits() + 1)]
            {
                assert_eq!(round_to_u8(x), u8_oracle(x), "{x}");
                assert_eq!(round_to_u8(-x), u8_oracle(-x), "{}", -x);
            }
        }
    }

    proptest! {
        /// Both helpers equal `f64::round` + clamp on arbitrary bit
        /// patterns, NaNs and infinities included, and on values in
        /// [−1.5, 0.5) scaled by powers of two up to 2^30.
        #[test]
        fn prop_round_to_i16_matches_f64_round(bits in any::<u64>(), scale in 0i32..40) {
            let unit = f64::from_bits(bits >> 12 | 0x3ff0_0000_0000_0000) - 1.5;
            for x in [f64::from_bits(bits), unit * f64::from(1 << (scale % 31))] {
                prop_assert_eq!(round_to_i16(x), i16_oracle(x), "{:e}", x);
                prop_assert_eq!(round_to_u8(x), u8_oracle(x), "{:e}", x);
                prop_assert_eq!(round_to_u8(x + 128.0), u8_oracle(x + 128.0), "{:e}", x);
            }
        }
    }
}
