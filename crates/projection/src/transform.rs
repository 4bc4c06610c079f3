//! The complete `f64` reference PT pipeline, plus content-generation
//! helpers built on the inverse mappings.
//!
//! This is the computation a mobile GPU performs via texture mapping
//! (paper §2): perspective update → mapping → filtering for every output
//! pixel. The [`fixed`](crate::fixed) module mirrors it bit-faithfully in
//! fixed point for the PTE.

use serde::{Deserialize, Serialize};

use evr_math::EulerAngles;

use crate::filter::{bilinear_interior, sample, EdgeMode, FilterMode};
use crate::fov::{FovFrameMeta, FovSpec, Viewport};
use crate::mapping::Projection;
use crate::perspective::PerspectiveUpdate;
use crate::pixel::{ImageBuffer, PixelSource};

/// A rendered FOV frame plus the metadata SAS attaches to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FovFrame {
    /// The planar pixels ready for display.
    pub image: ImageBuffer,
    /// Orientation + FOV the frame was rendered for.
    pub meta: FovFrameMeta,
}

/// The reference projective-transformation engine.
///
/// One `Transformer` captures the static configuration (projection method,
/// filter, FOV, output viewport); per-frame state (head orientation) is an
/// argument to [`Transformer::render_fov`], matching the PTE's split
/// between configuration registers and per-frame updates.
///
/// # Example
///
/// ```
/// use evr_projection::{Transformer, Projection, FilterMode, FovSpec, Viewport};
/// use evr_projection::pixel::{ImageBuffer, Rgb};
/// use evr_math::EulerAngles;
///
/// let src = ImageBuffer::from_fn(128, 64, |x, y| Rgb::new(x as u8, y as u8, 0));
/// let t = Transformer::new(
///     Projection::Erp,
///     FilterMode::Bilinear,
///     FovSpec::from_degrees(110.0, 110.0),
///     Viewport::new(32, 32),
/// );
/// let frame = t.render_fov(&src, EulerAngles::from_degrees(45.0, 0.0, 0.0));
/// assert_eq!(frame.image.height(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transformer {
    projection: Projection,
    filter: FilterMode,
    fov: FovSpec,
    viewport: Viewport,
}

impl Transformer {
    /// Creates a transformer for the given static configuration.
    pub fn new(
        projection: Projection,
        filter: FilterMode,
        fov: FovSpec,
        viewport: Viewport,
    ) -> Self {
        Transformer { projection, filter, fov, viewport }
    }

    /// The projection method input frames are stored in.
    pub fn projection(&self) -> Projection {
        self.projection
    }

    /// The reconstruction filter.
    pub fn filter(&self) -> FilterMode {
        self.filter
    }

    /// The output field of view.
    pub fn fov(&self) -> FovSpec {
        self.fov
    }

    /// The output viewport.
    pub fn viewport(&self) -> Viewport {
        self.viewport
    }

    /// Maps one output pixel `(i, j)` to normalised source coordinates
    /// `(u, v)` under `orientation` — the pure coordinate part of the PT,
    /// exposed for testing against the fixed-point datapath.
    pub fn map_pixel(&self, i: u32, j: u32, orientation: EulerAngles) -> (f64, f64) {
        let persp = PerspectiveUpdate::new(self.fov, self.viewport, orientation);
        self.projection.sphere_to_frame(persp.pixel_direction(i, j))
    }

    /// Runs the full PT on the calling thread: renders the FOV frame seen
    /// at `orientation` from the full panoramic `src` frame, as
    /// [`Transformer::coordinate_map`] then
    /// [`Transformer::render_with_map`].
    pub fn render_fov(&self, src: &ImageBuffer, orientation: EulerAngles) -> FovFrame {
        FovFrame {
            image: self.render_with_map(src, &self.coordinate_map(orientation)),
            meta: FovFrameMeta::new(orientation, self.fov),
        }
    }

    /// Precomputes the per-pixel source coordinates for one orientation,
    /// row-major — the coordinate half of the PT, reusable across frames
    /// while the orientation is unchanged (SAS's FOV videos snap
    /// orientations to a grid, so consecutive frames usually share a map;
    /// the [`crate::lut::SamplingMapCache`] automates the reuse).
    pub fn coordinate_map(&self, orientation: EulerAngles) -> Vec<(f64, f64)> {
        self.coordinate_map_strided(orientation, 1)
    }

    /// Like [`Transformer::coordinate_map`] but sampling every
    /// `stride`-th pixel per axis, row-major — the coordinate stream the
    /// PTE's strided frame analysis consumes. `stride == 1` is the full
    /// map.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn coordinate_map_strided(&self, orientation: EulerAngles, stride: u32) -> Vec<(f64, f64)> {
        assert!(stride > 0, "stride must be non-zero");
        let persp = PerspectiveUpdate::new(self.fov, self.viewport, orientation);
        let (w, h) = (self.viewport.width, self.viewport.height);
        let mut map = Vec::with_capacity(w.div_ceil(stride) as usize * h.div_ceil(stride) as usize);
        for j in (0..h).step_by(stride as usize) {
            for i in (0..w).step_by(stride as usize) {
                map.push(self.projection.sphere_to_frame(persp.pixel_direction(i, j)));
            }
        }
        map
    }

    /// Renders through a precomputed coordinate map (the filtering half
    /// of the PT) on the calling thread.
    ///
    /// A bilinear tap whose 2×2 footprint lies inside `src` reads the
    /// pixel slice directly (`filter::bilinear_interior`); border and
    /// seam taps, `Nearest` and non-finite coordinates go through
    /// [`sample`]. The output is bit-identical to the generic per-pixel
    /// [`sample`] loop.
    ///
    /// # Panics
    ///
    /// Panics if the map's length does not match the viewport.
    pub fn render_with_map(&self, src: &ImageBuffer, map: &[(f64, f64)]) -> ImageBuffer {
        assert_eq!(map.len() as u64, self.viewport.pixels(), "coordinate map size mismatch");
        let edge = EdgeMode::for_projection(self.projection);
        let generic = |(u, v): (f64, f64)| sample(src, u, v, self.filter, edge);
        let pixels = match self.filter {
            FilterMode::Nearest => map.iter().copied().map(generic).collect(),
            FilterMode::Bilinear => map
                .iter()
                .map(|&(u, v)| bilinear_interior(src, u, v).unwrap_or_else(|| generic((u, v))))
                .collect(),
        };
        ImageBuffer::from_pixels(self.viewport.width, self.viewport.height, pixels)
    }
}

/// Renders a full panoramic frame in `projection` by evaluating `shade`
/// for every stored direction — the content-generation path used by the
/// synthetic scene renderer and by format transcoding.
///
/// # Example
///
/// ```
/// use evr_projection::{transform::render_panorama, Projection, Rgb};
/// use evr_math::Vec3;
///
/// // A panorama that is white above the horizon and black below.
/// let pano = render_panorama(Projection::Erp, 64, 32, |dir: Vec3| {
///     if dir.y > 0.0 { Rgb::WHITE } else { Rgb::BLACK }
/// });
/// assert_eq!(pano.get(0, 0), Rgb::WHITE);
/// assert_eq!(pano.get(0, 31), Rgb::BLACK);
/// ```
pub fn render_panorama(
    projection: Projection,
    width: u32,
    height: u32,
    mut shade: impl FnMut(evr_math::Vec3) -> crate::pixel::Rgb,
) -> ImageBuffer {
    ImageBuffer::from_fn(width, height, |x, y| {
        let u = (x as f64 + 0.5) / width as f64;
        let v = (y as f64 + 0.5) / height as f64;
        shade(projection.frame_to_sphere(u, v))
    })
}

/// Transcodes a panoramic frame between projections (e.g. ERP → EAC),
/// sampling with the given filter.
pub fn transcode(
    src: &impl PixelSource,
    from: Projection,
    to: Projection,
    out_width: u32,
    out_height: u32,
    filter: FilterMode,
) -> ImageBuffer {
    let edge = EdgeMode::for_projection(from);
    ImageBuffer::from_fn(out_width, out_height, |x, y| {
        let u = (x as f64 + 0.5) / out_width as f64;
        let v = (y as f64 + 0.5) / out_height as f64;
        let dir = to.frame_to_sphere(u, v);
        let (su, sv) = from.sphere_to_frame(dir);
        sample(src, su, sv, filter, edge)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Rgb;
    use evr_math::Vec3;
    use proptest::prelude::*;

    /// A panorama with a distinct colour per octant of the sphere — enough
    /// structure to verify orientation handling end to end.
    fn octant_panorama(projection: Projection, w: u32, h: u32) -> ImageBuffer {
        render_panorama(projection, w, h, octant_shade)
    }

    fn octant_shade(dir: Vec3) -> Rgb {
        Rgb::new(
            if dir.x > 0.0 { 200 } else { 40 },
            if dir.y > 0.0 { 200 } else { 40 },
            if dir.z > 0.0 { 200 } else { 40 },
        )
    }

    fn center_pixel(t: &Transformer, src: &ImageBuffer, pose: EulerAngles) -> Rgb {
        let f = t.render_fov(src, pose);
        f.image.get(t.viewport().width / 2, t.viewport().height / 2)
    }

    #[test]
    fn looking_at_each_axis_sees_the_right_octant() {
        for projection in Projection::ALL {
            let src = octant_panorama(projection, 192, 96);
            let t = Transformer::new(
                projection,
                FilterMode::Nearest,
                FovSpec::from_degrees(90.0, 90.0),
                Viewport::new(17, 17),
            );
            // Forward: z > 0 ⇒ blue bright.
            let p = center_pixel(&t, &src, EulerAngles::default());
            assert_eq!(p.b, 200, "{projection} forward");
            // Right: x > 0 ⇒ red bright.
            let p = center_pixel(&t, &src, EulerAngles::from_degrees(90.0, 0.0, 0.0));
            assert_eq!(p.r, 200, "{projection} right");
            // Up: y > 0 ⇒ green bright.
            let p = center_pixel(&t, &src, EulerAngles::from_degrees(0.0, 89.0, 0.0));
            assert_eq!(p.g, 200, "{projection} up");
            // Behind: z < 0 ⇒ blue dark.
            let p = center_pixel(&t, &src, EulerAngles::from_degrees(180.0, 0.0, 0.0));
            assert_eq!(p.b, 40, "{projection} behind");
        }
    }

    #[test]
    fn map_pixel_matches_render_path() {
        let src = octant_panorama(Projection::Erp, 128, 64);
        let t = Transformer::new(
            Projection::Erp,
            FilterMode::Nearest,
            FovSpec::from_degrees(100.0, 100.0),
            Viewport::new(9, 9),
        );
        let pose = EulerAngles::from_degrees(30.0, -20.0, 5.0);
        let frame = t.render_fov(&src, pose);
        for (i, j) in [(0, 0), (4, 4), (8, 8), (2, 7)] {
            let (u, v) = t.map_pixel(i, j, pose);
            let expect = sample(&src, u, v, FilterMode::Nearest, EdgeMode::WrapU);
            assert_eq!(frame.image.get(i, j), expect);
        }
    }

    /// The generic per-pixel [`sample`] loop that the interior fast path
    /// of `render_with_map` must reproduce.
    fn render_with_map_reference(
        t: &Transformer,
        src: &ImageBuffer,
        map: &[(f64, f64)],
    ) -> ImageBuffer {
        let edge = EdgeMode::for_projection(t.projection);
        let pixels = map.iter().map(|&(u, v)| sample(src, u, v, t.filter, edge)).collect();
        ImageBuffer::from_pixels(t.viewport.width, t.viewport.height, pixels)
    }

    /// A source whose every pixel differs from its neighbours, so a tap
    /// read from the wrong texel shows.
    fn noise_source(w: u32, h: u32, seed: u32) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let k = (x.wrapping_mul(2654435761) ^ y.wrapping_mul(40503) ^ seed).rotate_left(11);
            Rgb::new(k as u8, (k >> 8) as u8, (k >> 16) as u8)
        })
    }

    /// Source sizes for the oracle checks: powers of two (where texel
    /// centres and the last interior coordinate `w − 1` are exact), odd
    /// sizes, and the degenerate 1×1 and 2×1 frames, which have no
    /// interior footprint at all.
    const SOURCES: [(u32, u32); 5] = [(64, 32), (33, 17), (8, 2), (1, 1), (2, 1)];

    #[test]
    fn serial_map_render_matches_reference_at_seam_and_pole_poses() {
        let poses = [
            (0.0, 0.0, 0.0),
            (179.5, 0.0, 0.0),
            (-179.5, 12.0, 4.0),
            (180.0, -30.0, 0.0),
            (45.0, 89.9, 0.0),
            (-120.0, -90.0, 0.0),
            (90.0, 80.0, -15.0),
        ];
        for projection in Projection::ALL {
            for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                let t = Transformer::new(
                    projection,
                    filter,
                    FovSpec::from_degrees(120.0, 120.0),
                    Viewport::new(24, 18),
                );
                for (w, h) in SOURCES {
                    let src = noise_source(w, h, w * 31 + h);
                    for (yaw, pitch, roll) in poses {
                        let map = t.coordinate_map(EulerAngles::from_degrees(yaw, pitch, roll));
                        assert_eq!(
                            t.render_with_map(&src, &map),
                            render_with_map_reference(&t, &src, &map),
                            "{projection} {filter} {w}x{h} at ({yaw}, {pitch}, {roll})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_map_subsamples_the_full_map() {
        let t = Transformer::new(
            Projection::Cmp,
            FilterMode::Nearest,
            FovSpec::from_degrees(90.0, 90.0),
            Viewport::new(8, 6),
        );
        let pose = EulerAngles::from_degrees(-50.0, 12.0, 0.0);
        let full = t.coordinate_map(pose);
        assert_eq!(t.coordinate_map_strided(pose, 1), full);
        let strided = t.coordinate_map_strided(pose, 2);
        assert_eq!(strided.len(), 4 * 3);
        for (k, &(u, v)) in strided.iter().enumerate() {
            let (i, j) = ((k % 4) * 2, (k / 4) * 2);
            assert_eq!((u, v), full[j * 8 + i]);
        }
    }

    #[test]
    fn fov_frame_metadata_records_pose() {
        let src = octant_panorama(Projection::Erp, 64, 32);
        let t = Transformer::new(
            Projection::Erp,
            FilterMode::Bilinear,
            FovSpec::from_degrees(110.0, 110.0),
            Viewport::new(8, 8),
        );
        let pose = EulerAngles::from_degrees(12.0, 3.0, 0.0);
        let f = t.render_fov(&src, pose);
        assert_eq!(f.meta.orientation, pose);
        assert_eq!(f.meta.fov, t.fov());
    }

    #[test]
    fn transcode_preserves_content() {
        let src = octant_panorama(Projection::Erp, 192, 96);
        let eac = transcode(&src, Projection::Erp, Projection::Eac, 192, 128, FilterMode::Nearest);
        // Sample a few directions through both representations.
        for dir in [Vec3::FORWARD, Vec3::RIGHT, -Vec3::UP] {
            let (u, v) = Projection::Eac.sphere_to_frame(dir * 0.9 + Vec3::new(0.05, 0.08, 0.0));
            let px = eac.get(((u * 192.0) as u32).min(191), ((v * 128.0) as u32).min(127));
            let want = octant_shade((dir * 0.9 + Vec3::new(0.05, 0.08, 0.0)).normalized().unwrap());
            assert_eq!(px, want);
        }
    }

    #[test]
    fn identity_roundtrip_reconstructs_view() {
        // Render a FOV frame, then verify each pixel matches shading the
        // ray directly: the pipeline introduces only filtering error.
        let src = render_panorama(Projection::Erp, 256, 128, |d| {
            let c = ((d.x * 4.0).sin() * 100.0 + 128.0) as u8;
            Rgb::new(c, c, c)
        });
        let t = Transformer::new(
            Projection::Erp,
            FilterMode::Bilinear,
            FovSpec::from_degrees(80.0, 80.0),
            Viewport::new(16, 16),
        );
        let pose = EulerAngles::from_degrees(20.0, 10.0, 0.0);
        let persp = PerspectiveUpdate::new(t.fov(), t.viewport(), pose);
        let frame = t.render_fov(&src, pose);
        let mut worst = 0u32;
        for j in 0..16 {
            for i in 0..16 {
                let dir = persp.pixel_direction(i, j);
                let c = ((dir.x * 4.0).sin() * 100.0 + 128.0) as u8;
                let got = frame.image.get(i, j);
                worst = worst.max(got.abs_diff(Rgb::new(c, c, c)));
            }
        }
        assert!(worst < 30, "worst channel-sum error {worst}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Arbitrary maps: texel centres and footprint boundaries (exact
        /// on the power-of-two sources), the frame edges, coordinates far
        /// outside `[0, 1]`, NaN and ±∞, for every projection's edge
        /// mode and both filters.
        #[test]
        fn prop_serial_map_render_matches_reference(
            source in 0usize..5,
            seed in any::<u32>(),
            picks in proptest::collection::vec((0u32..10, 0u32..10, 0.0f64..1.0, 0.0f64..1.0), 12),
        ) {
            let (w, h) = SOURCES[source];
            let src = noise_source(w, h, seed);
            let coordinate = |pick: u32, t: f64, size: u32| -> f64 {
                let size = f64::from(size);
                match pick {
                    0 => ((t * size).floor() + 0.5) / size,
                    1 => (size - 0.5) / size,
                    2 => 0.5 / size,
                    3 => 0.0,
                    4 => 1.0,
                    5 => t * 6.0 - 2.5,
                    6 => f64::NAN,
                    7 => f64::INFINITY,
                    8 => f64::NEG_INFINITY,
                    _ => t,
                }
            };
            let map: Vec<(f64, f64)> = picks
                .iter()
                .map(|&(pu, pv, tu, tv)| (coordinate(pu, tu, w), coordinate(pv, tv, h)))
                .collect();
            // Each tap renders through a 1×1 viewport, so a failure names
            // its tap.
            for projection in Projection::ALL {
                for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                    let t = Transformer::new(
                        projection,
                        filter,
                        FovSpec::from_degrees(90.0, 90.0),
                        Viewport::new(1, 1),
                    );
                    for tap in &map {
                        let tap = std::slice::from_ref(tap);
                        prop_assert_eq!(
                            t.render_with_map(&src, tap),
                            render_with_map_reference(&t, &src, tap),
                            "{} {} {}x{} {:?}", projection, filter, w, h, tap
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_render_is_deterministic(yaw in -180.0f64..180.0, pitch in -60.0f64..60.0) {
            let src = octant_panorama(Projection::Cmp, 48, 32);
            let t = Transformer::new(
                Projection::Cmp,
                FilterMode::Bilinear,
                FovSpec::from_degrees(110.0, 110.0),
                Viewport::new(6, 6),
            );
            let pose = EulerAngles::from_degrees(yaw, pitch, 0.0);
            prop_assert_eq!(t.render_fov(&src, pose).image, t.render_fov(&src, pose).image);
        }
    }
}
