//! The *filtering* stage: reconstructing a pixel value at fractional frame
//! coordinates (paper §6.1/§6.2).
//!
//! Supports the two classic filtering functions the PTU implements:
//! nearest neighbour and bilinear interpolation. Sampling is "much like a
//! stencil operation": it touches at most a 2×2 block of adjacent pixels,
//! the property that lets the PTE replace the GPU's texture cache with
//! small line buffers.

use serde::{Deserialize, Serialize};
use std::fmt;

use evr_math::round::round_to_u8;

use crate::pixel::{ImageBuffer, PixelSource, Rgb};

/// Pixel-reconstruction filters supported by the PTU.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FilterMode {
    /// Nearest-neighbour: pick the closest texel. Cheapest; blockier.
    Nearest,
    /// Bilinear interpolation over the 2×2 neighbourhood. The default.
    #[default]
    Bilinear,
}

impl fmt::Display for FilterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterMode::Nearest => f.write_str("nearest"),
            FilterMode::Bilinear => f.write_str("bilinear"),
        }
    }
}

/// How coordinates outside the frame are folded back in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeMode {
    /// Clamp to the frame border (cube layouts — faces do not wrap into
    /// each other meaningfully at the 2×2 level).
    #[default]
    Clamp,
    /// Wrap horizontally, clamp vertically (equirectangular frames are
    /// periodic in longitude).
    WrapU,
}

impl EdgeMode {
    /// The edge behaviour appropriate for a projection's frame layout.
    pub fn for_projection(p: crate::Projection) -> EdgeMode {
        match p {
            crate::Projection::Erp => EdgeMode::WrapU,
            crate::Projection::Cmp | crate::Projection::Eac => EdgeMode::Clamp,
        }
    }

    /// Folds a (possibly out-of-range) texel coordinate back into the
    /// frame under this edge behaviour — the exact address resolution
    /// the samplers use. Public so traffic analyzers (the PTE's P-MEM
    /// model) can replay the datapath's addresses instead of guessing:
    /// clamping where the datapath wraps undercounts seam traffic.
    pub fn resolve(self, x: i64, y: i64, w: u32, h: u32) -> (u32, u32) {
        let yy = y.clamp(0, h as i64 - 1) as u32;
        let xx = match self {
            EdgeMode::Clamp => x.clamp(0, w as i64 - 1) as u32,
            EdgeMode::WrapU => x.rem_euclid(w as i64) as u32,
        };
        (xx, yy)
    }
}

/// Samples `src` at normalised coordinates `(u, v) ∈ [0, 1)²`.
///
/// `(u, v)` address the frame continuously: `u = 0` is the left edge,
/// `u = 1` the right edge, with texel centres at `(k + 0.5) / size`.
///
/// # Example
///
/// ```
/// use evr_projection::filter::{sample, EdgeMode};
/// use evr_projection::{FilterMode, ImageBuffer, Rgb};
///
/// let img = ImageBuffer::from_fn(2, 1, |x, _| if x == 0 { Rgb::BLACK } else { Rgb::WHITE });
/// // Halfway between the two texel centres, bilinear gives mid grey.
/// let mid = sample(&img, 0.5, 0.5, FilterMode::Bilinear, EdgeMode::Clamp);
/// assert!((mid.r as i32 - 127).abs() <= 1);
/// ```
pub fn sample(src: &impl PixelSource, u: f64, v: f64, filter: FilterMode, edge: EdgeMode) -> Rgb {
    let w = src.width();
    let h = src.height();
    // Continuous pixel coordinates with texel centres at integer + 0.5.
    let px = u * w as f64 - 0.5;
    let py = v * h as f64 - 0.5;
    match filter {
        FilterMode::Nearest => {
            let (x, y) = edge.resolve(px.round() as i64, py.round() as i64, w, h);
            src.pixel(x, y)
        }
        FilterMode::Bilinear => {
            let x0 = px.floor() as i64;
            let y0 = py.floor() as i64;
            let fx = px - x0 as f64;
            let fy = py - y0 as f64;
            // An interior 2×2 footprint resolves to itself under either
            // edge mode, so only border taps pay for `resolve` (a
            // `rem_euclid` per tap for ERP). `resolve` folds x and y
            // independently, so two calls cover all four taps. The far
            // taps saturate: a +∞ or huge coordinate casts to `i64::MAX`.
            let (xa, ya, xb, yb) = if x0 >= 0 && y0 >= 0 && x0 < w as i64 - 1 && y0 < h as i64 - 1 {
                (x0 as u32, y0 as u32, x0 as u32 + 1, y0 as u32 + 1)
            } else {
                let (xa, ya) = edge.resolve(x0, y0, w, h);
                let (xb, yb) = edge.resolve(x0.saturating_add(1), y0.saturating_add(1), w, h);
                (xa, ya, xb, yb)
            };
            let taps = [src.pixel(xa, ya), src.pixel(xb, ya), src.pixel(xa, yb), src.pixel(xb, yb)];
            bilinear_blend(taps, fx, fy)
        }
    }
}

/// The bilinear sample of `src` at `(u, v)` read straight from its pixel
/// slice, or `None` unless the 2×2 footprint lies inside the frame.
///
/// The footprint is interior exactly when `0 ≤ px < w − 1` and
/// `0 ≤ py < h − 1` for the continuous coordinates `px`, `py` of
/// [`sample`]. On that range `floor` equals the truncating cast, so the
/// footprint origin and the fractions are the ones [`sample`] computes,
/// and the blend is the same [`bilinear_blend`]; the comparisons are
/// false for NaN and ±∞. Border and seam taps, and every coordinate
/// this rejects, are left to [`sample`].
#[inline]
pub(crate) fn bilinear_interior(src: &ImageBuffer, u: f64, v: f64) -> Option<Rgb> {
    let (w, h) = (src.width(), src.height());
    let px = u * w as f64 - 0.5;
    let py = v * h as f64 - 0.5;
    let inside = px >= 0.0 && px < (w - 1) as f64 && py >= 0.0 && py < (h - 1) as f64;
    if !inside {
        return None;
    }
    // `u32`, not `usize`: the casts between `f64` and `u32` are single
    // instructions on x86-64, those to and from `u64` are not.
    let (x0, y0) = (px as u32, py as u32);
    let (fx, fy) = (px - f64::from(x0), py - f64::from(y0));
    let w = w as usize;
    let i = y0 as usize * w + x0 as usize;
    let (top, bot) = (&src.pixels()[i..i + 2], &src.pixels()[i + w..i + w + 2]);
    Some(bilinear_blend([top[0], top[1], bot[0], bot[1]], fx, fy))
}

/// Blends the 2×2 footprint `[p00, p10, p01, p11]` at fractional offsets
/// `(fx, fy)`: per channel, a horizontal lerp on each row, a vertical
/// lerp between them, rounded half away from zero
/// ([`round_to_u8`], bit-identical to `f64::round` and a clamp). Shared
/// by [`sample`] and the serial fast path of
/// [`Transformer::render_with_map`](crate::Transformer::render_with_map),
/// so both evaluate the identical expression.
#[inline]
pub(crate) fn bilinear_blend(taps: [Rgb; 4], fx: f64, fy: f64) -> Rgb {
    let [p00, p10, p01, p11] = taps;
    let blend = |c00: u8, c10: u8, c01: u8, c11: u8| -> u8 {
        let top = c00 as f64 * (1.0 - fx) + c10 as f64 * fx;
        let bot = c01 as f64 * (1.0 - fx) + c11 as f64 * fx;
        round_to_u8(top * (1.0 - fy) + bot * fy)
    };
    Rgb::new(
        blend(p00.r, p10.r, p01.r, p11.r),
        blend(p00.g, p10.g, p01.g, p11.g),
        blend(p00.b, p10.b, p01.b, p11.b),
    )
}

/// The set of texel coordinates a sample at `(u, v)` touches — the access
/// footprint the PTE's line-buffer model replays to size P-MEM correctly.
pub fn sample_footprint(
    width: u32,
    height: u32,
    u: f64,
    v: f64,
    filter: FilterMode,
    edge: EdgeMode,
) -> Vec<(u32, u32)> {
    let px = u * width as f64 - 0.5;
    let py = v * height as f64 - 0.5;
    match filter {
        FilterMode::Nearest => {
            vec![edge.resolve(px.round() as i64, py.round() as i64, width, height)]
        }
        FilterMode::Bilinear => {
            let x0 = px.floor() as i64;
            let y0 = py.floor() as i64;
            let mut out = Vec::with_capacity(4);
            for dy in 0..2 {
                for dx in 0..2 {
                    let c =
                        edge.resolve(x0.saturating_add(dx), y0.saturating_add(dy), width, height);
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gradient() -> ImageBuffer {
        ImageBuffer::from_fn(4, 4, |x, y| Rgb::new((x * 60) as u8, (y * 60) as u8, 0))
    }

    #[test]
    fn nearest_picks_texel_centers() {
        let img = gradient();
        // u = (1 + 0.5) / 4 addresses texel 1 exactly.
        let p = sample(&img, 1.5 / 4.0, 2.5 / 4.0, FilterMode::Nearest, EdgeMode::Clamp);
        assert_eq!(p, Rgb::new(60, 120, 0));
    }

    #[test]
    fn bilinear_at_texel_center_is_exact() {
        let img = gradient();
        let p = sample(&img, 2.5 / 4.0, 1.5 / 4.0, FilterMode::Bilinear, EdgeMode::Clamp);
        assert_eq!(p, Rgb::new(120, 60, 0));
    }

    #[test]
    fn bilinear_interpolates_between_texels() {
        let img = ImageBuffer::from_fn(2, 1, |x, _| {
            if x == 0 {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(200, 100, 50)
            }
        });
        let p = sample(&img, 0.5, 0.5, FilterMode::Bilinear, EdgeMode::Clamp);
        assert_eq!(p, Rgb::new(100, 50, 25));
    }

    #[test]
    fn clamp_edge_does_not_wrap() {
        let img = ImageBuffer::from_fn(4, 1, |x, _| if x == 0 { Rgb::WHITE } else { Rgb::BLACK });
        // Sampling just left of the frame clamps to column 0.
        let p = sample(&img, 0.01, 0.5, FilterMode::Bilinear, EdgeMode::Clamp);
        assert_eq!(p, Rgb::WHITE);
    }

    #[test]
    fn wrap_u_blends_across_seam() {
        let img = ImageBuffer::from_fn(4, 1, |x, _| {
            if x == 0 {
                Rgb::new(200, 0, 0)
            } else if x == 3 {
                Rgb::new(0, 0, 200)
            } else {
                Rgb::BLACK
            }
        });
        // u = 0: halfway between texel 3 (via wrap) and texel 0.
        let p = sample(&img, 0.0, 0.5, FilterMode::Bilinear, EdgeMode::WrapU);
        assert_eq!(p, Rgb::new(100, 0, 100));
    }

    #[test]
    fn footprint_sizes() {
        let f = sample_footprint(8, 8, 0.37, 0.61, FilterMode::Nearest, EdgeMode::Clamp);
        assert_eq!(f.len(), 1);
        let f = sample_footprint(8, 8, 0.37, 0.61, FilterMode::Bilinear, EdgeMode::Clamp);
        assert_eq!(f.len(), 4);
        // At a corner with clamping, duplicates collapse.
        let f = sample_footprint(8, 8, 0.0, 0.0, FilterMode::Bilinear, EdgeMode::Clamp);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn extreme_coordinates_sample_without_panicking() {
        let img = gradient();
        let extremes = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300];
        for (u, v) in extremes.into_iter().flat_map(|u| extremes.map(|v| (u, v))) {
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                for edge in [EdgeMode::Clamp, EdgeMode::WrapU] {
                    sample(&img, u, v, filter, edge);
                    for (x, y) in sample_footprint(4, 4, u, v, filter, edge) {
                        assert!(x < 4 && y < 4, "{filter} {edge:?} at ({u}, {v}): ({x}, {y})");
                    }
                }
            }
        }
        // +∞ clamps to the last column and row, never wraps to column 0.
        for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
            let inf = f64::INFINITY;
            assert_eq!(sample_footprint(4, 4, inf, inf, filter, EdgeMode::Clamp), vec![(3, 3)]);
        }
    }

    /// The always-`resolve` bilinear tap the interior fast path
    /// replaces.
    fn bilinear_reference(src: &ImageBuffer, u: f64, v: f64, edge: EdgeMode) -> Rgb {
        let (w, h) = (src.width(), src.height());
        let px = u * w as f64 - 0.5;
        let py = v * h as f64 - 0.5;
        let x0 = px.floor() as i64;
        let y0 = py.floor() as i64;
        let fx = px - x0 as f64;
        let fy = py - y0 as f64;
        let fetch = |dx: i64, dy: i64| {
            let (x, y) = edge.resolve(x0 + dx, y0 + dy, w, h);
            src.pixel(x, y)
        };
        let (p00, p10, p01, p11) = (fetch(0, 0), fetch(1, 0), fetch(0, 1), fetch(1, 1));
        let blend = |c00: u8, c10: u8, c01: u8, c11: u8| -> u8 {
            let top = c00 as f64 * (1.0 - fx) + c10 as f64 * fx;
            let bot = c01 as f64 * (1.0 - fx) + c11 as f64 * fx;
            (top * (1.0 - fy) + bot * fy).round().clamp(0.0, 255.0) as u8
        };
        Rgb::new(
            blend(p00.r, p10.r, p01.r, p11.r),
            blend(p00.g, p10.g, p01.g, p11.g),
            blend(p00.b, p10.b, p01.b, p11.b),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_bilinear_matches_always_resolve_reference(
            w in 1u32..12,
            h in 1u32..9,
            seed in 0u32..1000,
            (u, v) in (0.0f64..1.0, 0.0f64..1.0),
            border in 0u32..9,
        ) {
            let img = ImageBuffer::from_fn(w, h, |x, y| {
                let k = x * 31 + y * 17 + seed;
                Rgb::new((k * 7 % 256) as u8, (k * 13 % 256) as u8, (k * 29 % 256) as u8)
            });
            // Push most samples onto the seam and the borders: u, v
            // within half a texel of 0 or 1, and exactly 0 or 1.
            let snap = |t: f64, size: u32, pick: u32| match pick {
                0 => t / (2.0 * size as f64),
                1 => 1.0 - t / (2.0 * size as f64),
                2 => 0.0,
                3 => 1.0,
                _ => t,
            };
            let (u, v) = (snap(u, w, border % 5), snap(v, h, border / 2 % 5));
            for edge in [EdgeMode::Clamp, EdgeMode::WrapU] {
                prop_assert_eq!(
                    sample(&img, u, v, FilterMode::Bilinear, edge),
                    bilinear_reference(&img, u, v, edge)
                );
            }
        }

        #[test]
        fn prop_sample_never_exceeds_source_range(u in 0.0f64..1.0, v in 0.0f64..1.0) {
            // A constant image must sample to exactly that constant.
            let img = ImageBuffer::from_fn(5, 3, |_, _| Rgb::new(99, 140, 7));
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                for edge in [EdgeMode::Clamp, EdgeMode::WrapU] {
                    prop_assert_eq!(sample(&img, u, v, filter, edge), Rgb::new(99, 140, 7));
                }
            }
        }

        #[test]
        fn prop_footprint_within_bounds(u in 0.0f64..1.0, v in 0.0f64..1.0) {
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                for (x, y) in sample_footprint(16, 9, u, v, filter, EdgeMode::WrapU) {
                    prop_assert!(x < 16 && y < 9);
                }
            }
        }
    }
}
