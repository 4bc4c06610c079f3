//! BT.601 RGB ↔ YCbCr conversion and 4:2:0 planar layout.
//!
//! The codec model transforms luma at full resolution and chroma at half
//! resolution, like every deployed consumer codec; keeping this structure
//! (rather than coding RGB directly) is what makes the model's
//! content-vs-size behaviour realistic.

use serde::{Deserialize, Serialize};

use evr_math::round::round_to_u8;
use evr_projection::{ImageBuffer, Rgb};

/// A full-resolution plane of 8-bit samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plane {
    width: u32,
    height: u32,
    samples: Vec<u8>,
}

impl Plane {
    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn filled(width: u32, height: u32, value: u8) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Plane { width, height, samples: vec![value; (width * height) as usize] }
    }

    /// Wraps row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `samples.len() != width * height`.
    pub(crate) fn from_samples(width: u32, height: u32, samples: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        assert_eq!(samples.len(), width as usize * height as usize, "sample count mismatch");
        Plane { width, height, samples }
    }

    /// Width in samples.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in samples.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Sample at `(x, y)`, clamping coordinates to the plane (the codec
    /// pads partial blocks by edge extension).
    pub fn sample_clamped(&self, x: i64, y: i64) -> u8 {
        let xx = x.clamp(0, self.width as i64 - 1) as u32;
        let yy = y.clamp(0, self.height as i64 - 1) as u32;
        self.samples[(yy * self.width + xx) as usize]
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height);
        self.samples[(y * self.width + x) as usize] = v;
    }

    /// Raw sample storage, row-major.
    pub fn samples(&self) -> &[u8] {
        &self.samples
    }
}

/// A 4:2:0 planar YCbCr image: full-resolution Y, half-resolution Cb/Cr.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Yuv420 {
    /// Luma plane (full resolution).
    pub y: Plane,
    /// Blue-difference chroma (half resolution).
    pub cb: Plane,
    /// Red-difference chroma (half resolution).
    pub cr: Plane,
}

/// Converts an RGB image to 4:2:0 YCbCr (BT.601 full-range).
///
/// # Example
///
/// ```
/// use evr_video::yuv::{rgb_to_yuv420, yuv420_to_rgb};
/// use evr_projection::{ImageBuffer, Rgb};
///
/// let img = ImageBuffer::from_fn(8, 8, |x, y| Rgb::new((x * 30) as u8, (y * 30) as u8, 128));
/// let yuv = rgb_to_yuv420(&img);
/// let back = yuv420_to_rgb(&yuv);
/// // Chroma subsampling loses a little; luma structure survives.
/// assert!(img.mean_abs_error(&back) < 0.05);
/// ```
pub fn rgb_to_yuv420(img: &ImageBuffer) -> Yuv420 {
    let (w, h) = (img.width(), img.height());
    let wu = w as usize;
    // Chroma planes cover ceil(w/2) × ceil(h/2).
    let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
    let mut y = vec![0u8; wu * h as usize];
    let mut cb = Vec::with_capacity((cw * ch) as usize);
    let mut cr = Vec::with_capacity((cw * ch) as usize);
    // Per pair of rows: each pixel's B − Y and R − Y, then its Cb and Cr
    // from a loop of divisions alone.
    let mut chroma_b = vec![0f64; 2 * wu];
    let mut chroma_r = vec![0f64; 2 * wu];
    for (src, luma) in img.pixels().chunks(2 * wu).zip(y.chunks_mut(2 * wu)) {
        let n = src.len();
        let (chroma_b, chroma_r) = (&mut chroma_b[..n], &mut chroma_r[..n]);
        for (((p, l), b), r) in src.iter().zip(luma).zip(&mut *chroma_b).zip(&mut *chroma_r) {
            let yf = 0.299 * f64::from(p.r) + 0.587 * f64::from(p.g) + 0.114 * f64::from(p.b);
            *l = round_to_u8(yf);
            *b = f64::from(p.b) - yf;
            *r = f64::from(p.r) - yf;
        }
        for (b, r) in chroma_b.iter_mut().zip(&mut *chroma_r) {
            *b = *b / 1.772 + 128.0;
            *r = *r / 1.402 + 128.0;
        }
        average_footprints(chroma_b, wu, &mut cb);
        average_footprints(chroma_r, wu, &mut cr);
    }
    Yuv420 {
        y: Plane::from_samples(w, h, y),
        cb: Plane::from_samples(cw, ch, cb),
        cr: Plane::from_samples(cw, ch, cr),
    }
}

/// Appends one row of chroma samples from one or two rows of `w`
/// per-pixel chroma values: each sample is the truncated integer mean of
/// the rounded values in its up-to-2×2 footprint. A last odd column or
/// row averages the one or two values it has.
fn average_footprints(rows: &[f64], w: usize, out: &mut Vec<u8>) {
    let (top, bottom) = rows.split_at(w);
    let sum = |s: &[f64]| s.iter().map(|&v| u16::from(round_to_u8(v))).sum::<u16>();
    if bottom.is_empty() {
        out.extend(top.chunks_exact(2).map(|a| (sum(a) / 2) as u8));
        if w % 2 == 1 {
            out.push(round_to_u8(top[w - 1]));
        }
    } else {
        let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        out.extend(pairs.map(|(a, b)| ((sum(a) + sum(b)) / 4) as u8));
        if w % 2 == 1 {
            out.push(((sum(&top[w - 1..]) + sum(&bottom[w - 1..])) / 2) as u8);
        }
    }
}

/// Converts 4:2:0 YCbCr back to RGB (nearest chroma upsampling).
pub fn yuv420_to_rgb(yuv: &Yuv420) -> ImageBuffer {
    let w = yuv.y.width();
    let h = yuv.y.height();
    ImageBuffer::from_fn(w, h, |x, y| {
        let yy = yuv.y.sample_clamped(x as i64, y as i64) as f64;
        let cb = yuv.cb.sample_clamped(x as i64 / 2, y as i64 / 2) as f64 - 128.0;
        let cr = yuv.cr.sample_clamped(x as i64 / 2, y as i64 / 2) as f64 - 128.0;
        let r = yy + 1.402 * cr;
        let g = yy - 0.344136 * cb - 0.714136 * cr;
        let b = yy + 1.772 * cb;
        Rgb::new(round_to_u8(r), round_to_u8(g), round_to_u8(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn luma(p: Rgb) -> u8 {
        round_to_u8(0.299 * p.r as f64 + 0.587 * p.g as f64 + 0.114 * p.b as f64)
    }

    fn chroma(p: Rgb) -> (u8, u8) {
        let y = 0.299 * p.r as f64 + 0.587 * p.g as f64 + 0.114 * p.b as f64;
        let cb = (p.b as f64 - y) / 1.772 + 128.0;
        let cr = (p.r as f64 - y) / 1.402 + 128.0;
        (round_to_u8(cb), round_to_u8(cr))
    }

    /// The per-pixel conversion the one-pass kernel replaces: luma per
    /// pixel, then per chroma sample the luma again and both divisions
    /// for each pixel of its footprint. The oracle it must match byte
    /// for byte.
    fn rgb_to_yuv420_reference(img: &ImageBuffer) -> Yuv420 {
        let w = img.width();
        let h = img.height();
        let mut y = Plane::filled(w, h, 0);
        let cw = w.div_ceil(2);
        let ch = h.div_ceil(2);
        let mut cb = Plane::filled(cw, ch, 128);
        let mut cr = Plane::filled(cw, ch, 128);

        for yy in 0..h {
            for xx in 0..w {
                let p = img.get(xx, yy);
                y.set(xx, yy, luma(p));
            }
        }
        for cy in 0..ch {
            for cx in 0..cw {
                let mut sum_cb = 0i32;
                let mut sum_cr = 0i32;
                let mut n = 0i32;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let px = cx * 2 + dx;
                        let py = cy * 2 + dy;
                        if px < w && py < h {
                            let p = img.get(px, py);
                            let (b, r) = chroma(p);
                            sum_cb += b as i32;
                            sum_cr += r as i32;
                            n += 1;
                        }
                    }
                }
                cb.set(cx, cy, (sum_cb / n) as u8);
                cr.set(cx, cy, (sum_cr / n) as u8);
            }
        }
        Yuv420 { y, cb, cr }
    }

    /// A `w`×`h` image of pseudo-random colours drawn from `seed`.
    fn random_image(w: u32, h: u32, seed: u64) -> ImageBuffer {
        let mut state = seed | 1;
        ImageBuffer::from_fn(w, h, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let [r, g, b, ..] = state.to_le_bytes();
            Rgb::new(r, g, b)
        })
    }

    #[test]
    fn conversion_matches_reference_on_extreme_colours() {
        // Pure primaries and greys, where B − Y and R − Y reach their
        // extremes and the rounded chroma its clamps.
        let colours = [
            Rgb::BLACK,
            Rgb::WHITE,
            Rgb::new(255, 0, 0),
            Rgb::new(0, 255, 0),
            Rgb::new(0, 0, 255),
            Rgb::new(255, 255, 0),
            Rgb::new(0, 255, 255),
            Rgb::new(255, 0, 255),
            Rgb::new(128, 128, 128),
        ];
        for (w, h) in [(1, 1), (3, 3), (4, 2), (9, 5)] {
            let img = ImageBuffer::from_fn(w, h, |x, y| colours[((x + 2 * y) % 9) as usize]);
            assert_eq!(rgb_to_yuv420(&img), rgb_to_yuv420_reference(&img), "{w}x{h}");
        }
    }

    #[test]
    fn grey_roundtrips_exactly() {
        let img = ImageBuffer::from_fn(6, 6, |x, y| {
            let g = ((x + y) * 20) as u8;
            Rgb::new(g, g, g)
        });
        let back = yuv420_to_rgb(&rgb_to_yuv420(&img));
        // Greys have neutral chroma, so subsampling costs nothing.
        assert!(img.mean_abs_error(&back) < 0.005);
    }

    #[test]
    fn odd_dimensions_supported() {
        let img = ImageBuffer::from_fn(5, 3, |x, _| Rgb::new((x * 50) as u8, 100, 20));
        let yuv = rgb_to_yuv420(&img);
        assert_eq!(yuv.y.width(), 5);
        assert_eq!(yuv.cb.width(), 3);
        assert_eq!(yuv.cb.height(), 2);
        let back = yuv420_to_rgb(&yuv);
        assert_eq!(back.width(), 5);
    }

    #[test]
    fn plane_clamping() {
        let mut p = Plane::filled(2, 2, 0);
        p.set(0, 0, 7);
        p.set(1, 1, 9);
        assert_eq!(p.sample_clamped(-5, -5), 7);
        assert_eq!(p.sample_clamped(10, 10), 9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_plane_panics() {
        let _ = Plane::filled(0, 1, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Every size from 1×1 to 19×19: odd and even widths and
        /// heights, one-row and one-column images.
        #[test]
        fn prop_conversion_matches_reference_at_every_small_size(seed in any::<u64>()) {
            for w in 1..=19 {
                for h in 1..=19 {
                    let img = random_image(w, h, seed ^ u64::from(w * 32 + h));
                    prop_assert_eq!(rgb_to_yuv420(&img), rgb_to_yuv420_reference(&img), "{}x{}", w, h);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_bounded(r in 0u8.., g in 0u8.., b in 0u8..) {
            // A solid-colour image roundtrips with small error everywhere.
            let img = ImageBuffer::from_fn(4, 4, |_, _| Rgb::new(r, g, b));
            let back = yuv420_to_rgb(&rgb_to_yuv420(&img));
            let p = back.get(1, 1);
            prop_assert!(p.abs_diff(Rgb::new(r, g, b)) <= 9);
        }
    }
}
