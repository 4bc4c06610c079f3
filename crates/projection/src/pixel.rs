//! Pixel types and image access traits.
//!
//! The PT pipeline is generic over where pixels come from — a decoded video
//! frame, a procedural scene, a line buffer inside the PTE model — via the
//! [`PixelSource`] trait. [`ImageBuffer`] is the plain owned implementation
//! used for outputs and tests.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 24-bit RGB pixel, the format the PT datapath produces (paper §6.1:
/// "returns a 24-bit RGB pixel value").
///
/// # Example
///
/// ```
/// use evr_projection::Rgb;
/// let p = Rgb::new(10, 20, 30);
/// assert_eq!(p.luma(), ((54 * 10 + 183 * 20 + 19 * 30) >> 8) as u8);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Black.
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    /// White.
    pub const WHITE: Rgb = Rgb { r: 255, g: 255, b: 255 };

    /// Creates a pixel from channel values.
    pub fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Integer BT.601-style luma approximation in `[0, 255]`, used by the
    /// codec model and the quality metrics.
    pub fn luma(self) -> u8 {
        ((54 * self.r as u32 + 183 * self.g as u32 + 19 * self.b as u32) >> 8) as u8
    }

    /// Sum of absolute channel differences to another pixel (0..=765).
    pub fn abs_diff(self, other: Rgb) -> u32 {
        (self.r as i32 - other.r as i32).unsigned_abs()
            + (self.g as i32 - other.g as i32).unsigned_abs()
            + (self.b as i32 - other.b as i32).unsigned_abs()
    }
}

impl fmt::Display for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

/// Read access to a rectangular grid of pixels.
///
/// Implementations must return the stored pixel for any `x < width()`,
/// `y < height()`; callers never pass out-of-range coordinates (samplers
/// clamp or wrap first).
pub trait PixelSource {
    /// Width in pixels (non-zero).
    fn width(&self) -> u32;
    /// Height in pixels (non-zero).
    fn height(&self) -> u32;
    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x >= width()` or `y >= height()`.
    fn pixel(&self, x: u32, y: u32) -> Rgb;
}

impl<T: PixelSource + ?Sized> PixelSource for &T {
    fn width(&self) -> u32 {
        (**self).width()
    }
    fn height(&self) -> u32 {
        (**self).height()
    }
    fn pixel(&self, x: u32, y: u32) -> Rgb {
        (**self).pixel(x, y)
    }
}

/// An owned, row-major RGB image.
///
/// # Example
///
/// ```
/// use evr_projection::{ImageBuffer, Rgb};
/// let img = ImageBuffer::from_fn(4, 2, |x, y| Rgb::new(x as u8, y as u8, 0));
/// assert_eq!(img.get(3, 1), Rgb::new(3, 1, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageBuffer {
    width: u32,
    height: u32,
    pixels: Vec<Rgb>,
}

impl ImageBuffer {
    /// Creates a black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        ImageBuffer { width, height, pixels: vec![Rgb::BLACK; (width * height) as usize] }
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgb) -> Self {
        let mut img = ImageBuffer::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Builds an image from a pre-filled pixel vector.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or a dimension is zero.
    pub fn from_pixels(width: u32, height: u32, pixels: Vec<Rgb>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert_eq!(pixels.len(), (width * height) as usize, "pixel count mismatch");
        ImageBuffer { width, height, pixels }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel ({x}, {y}) out of range");
        self.pixels[(y * self.width + x) as usize]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, x: u32, y: u32, p: Rgb) {
        assert!(x < self.width && y < self.height, "pixel ({x}, {y}) out of range");
        self.pixels[(y * self.width + x) as usize] = p;
    }

    /// Immutable view of all pixels, row-major.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Mean absolute per-channel difference to another image, normalised to
    /// `[0, 1]`. This is the pixel-error metric of the paper's Figure 11.
    ///
    /// # Panics
    ///
    /// Panics if the images have different dimensions.
    pub fn mean_abs_error(&self, other: &ImageBuffer) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimension mismatch"
        );
        let total: u64 =
            self.pixels.iter().zip(&other.pixels).map(|(a, b)| a.abs_diff(*b) as u64).sum();
        total as f64 / (self.pixels.len() as f64 * 3.0 * 255.0)
    }
}

/// Box-downsamples an image by 2× in each axis (averaging 2×2 blocks) —
/// the anti-aliasing step for supersampled FOV rendering.
///
/// # Panics
///
/// Panics if either dimension is odd or smaller than 2.
///
/// # Example
///
/// ```
/// use evr_projection::pixel::{downsample2x, ImageBuffer, Rgb};
/// let img = ImageBuffer::from_fn(4, 2, |x, _| if x < 2 { Rgb::BLACK } else { Rgb::WHITE });
/// let half = downsample2x(&img);
/// assert_eq!(half.width(), 2);
/// assert_eq!(half.get(0, 0), Rgb::BLACK);
/// assert_eq!(half.get(1, 0), Rgb::WHITE);
/// ```
pub fn downsample2x(img: &ImageBuffer) -> ImageBuffer {
    let w = img.width();
    let h = img.height();
    assert!(
        w >= 2 && h >= 2 && w.is_multiple_of(2) && h.is_multiple_of(2),
        "dimensions must be even and >= 2"
    );
    let mut pixels = Vec::with_capacity((w / 2 * (h / 2)) as usize);
    for rows in img.pixels.chunks_exact(2 * w as usize) {
        let (top, bottom) = rows.split_at(w as usize);
        for (t, b) in top.chunks_exact(2).zip(bottom.chunks_exact(2)) {
            let mean = |c: fn(&Rgb) -> u8| {
                ((u32::from(c(&t[0]))
                    + u32::from(c(&t[1]))
                    + u32::from(c(&b[0]))
                    + u32::from(c(&b[1])))
                    / 4) as u8
            };
            pixels.push(Rgb::new(mean(|p| p.r), mean(|p| p.g), mean(|p| p.b)));
        }
    }
    ImageBuffer::from_pixels(w / 2, h / 2, pixels)
}

impl PixelSource for ImageBuffer {
    fn width(&self) -> u32 {
        self.width
    }
    fn height(&self) -> u32 {
        self.height
    }
    fn pixel(&self, x: u32, y: u32) -> Rgb {
        self.get(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn luma_extremes() {
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert_eq!(Rgb::WHITE.luma(), 255);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Rgb::new(10, 200, 30);
        let b = Rgb::new(20, 100, 250);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(a), 0);
    }

    #[test]
    fn from_fn_layout() {
        let img = ImageBuffer::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 9));
        assert_eq!(img.pixels()[0], Rgb::new(0, 0, 9));
        assert_eq!(img.pixels()[5], Rgb::new(2, 1, 9));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = ImageBuffer::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let img = ImageBuffer::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn mean_abs_error_zero_for_identical() {
        let img = ImageBuffer::from_fn(8, 8, |x, y| Rgb::new((x * y) as u8, 0, 0));
        assert_eq!(img.mean_abs_error(&img), 0.0);
    }

    #[test]
    fn mean_abs_error_one_for_opposite() {
        let black = ImageBuffer::new(4, 4);
        let white = ImageBuffer::from_fn(4, 4, |_, _| Rgb::WHITE);
        assert!((black.mean_abs_error(&white) - 1.0).abs() < 1e-12);
    }

    /// The per-pixel `get` walk the row-pair slices replace.
    fn downsample2x_reference(img: &ImageBuffer) -> ImageBuffer {
        ImageBuffer::from_fn(img.width() / 2, img.height() / 2, |x, y| {
            let mut r = 0u32;
            let mut g = 0u32;
            let mut b = 0u32;
            for dy in 0..2 {
                for dx in 0..2 {
                    let p = img.get(x * 2 + dx, y * 2 + dy);
                    r += p.r as u32;
                    g += p.g as u32;
                    b += p.b as u32;
                }
            }
            Rgb::new((r / 4) as u8, (g / 4) as u8, (b / 4) as u8)
        })
    }

    #[test]
    fn reference_impl_forwards() {
        let img = ImageBuffer::from_fn(2, 2, |x, _| Rgb::new(x as u8, 0, 0));
        fn takes_source(s: impl PixelSource) -> Rgb {
            s.pixel(1, 0)
        }
        assert_eq!(takes_source(&img), Rgb::new(1, 0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_downsample2x_matches_reference(
            half_w in 1u32..20,
            half_h in 1u32..12,
            seed in any::<u32>(),
        ) {
            // Full-range channels, so the 4-sample sums reach 1020 and the
            // truncating division sees every remainder.
            let img = ImageBuffer::from_fn(half_w * 2, half_h * 2, |x, y| {
                let k = (x.wrapping_mul(2654435761) ^ y.wrapping_mul(40503) ^ seed).rotate_left(7);
                Rgb::new(k as u8, (k >> 8) as u8, (k >> 16) as u8)
            });
            prop_assert_eq!(downsample2x(&img), downsample2x_reference(&img));
        }
    }

    proptest! {
        #[test]
        fn prop_luma_within_range(r in 0u8.., g in 0u8.., b in 0u8..) {
            let p = Rgb::new(r, g, b);
            // luma is a convex-ish combination; always within channel bounds.
            let lo = r.min(g).min(b);
            let hi = r.max(g).max(b);
            prop_assert!(p.luma() >= lo.saturating_sub(1));
            prop_assert!(p.luma() <= hi);
        }
    }
}
