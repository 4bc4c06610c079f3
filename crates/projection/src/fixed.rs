//! The fixed-point PT datapath — a bit-faithful software model of the
//! PTE's per-pixel pipeline (paper §6.2–§6.3).
//!
//! Unlike [`crate::transform::Transformer`] (the `f64` GPU reference),
//! every arithmetic operation here flows through an
//! [`evr_math::fixed::FxCtx`], so results depend only on the chosen
//! `Q[total, int]` format. Running the same frames through both pipelines
//! and measuring the mean pixel error reproduces the paper's Figure 11
//! bit-width sweep, which selects `[28, 10]`.
//!
//! Datapath structure (one pixel per clock in hardware):
//!
//! ```text
//! init (NDC ray) → normalize → rotate (4-way MAC) → mapping
//!      ERP: C2S(atan2, asin) ∘ LS_erp
//!      CMP: face-select ∘ div ∘ LS_cmp ∘ C2F
//!      EAC: face-select ∘ div ∘ atan ∘ LS_eac ∘ C2F
//! → address generation (wide integer) → filtering (nearest / bilinear)
//! ```

use evr_math::fixed::{Fx, FxCtx, FxFormat};
use evr_math::EulerAngles;

use crate::filter::{EdgeMode, FilterMode};
use crate::fov::{FovSpec, Viewport};
use crate::mapping::{CubeFace, Projection};
use crate::pixel::{ImageBuffer, PixelSource, Rgb};
use crate::transform::Transformer;

/// A 3×3 rotation matrix with fixed-point entries, as loaded into the
/// PTU's perspective-update MAC unit.
#[derive(Debug, Clone, Copy)]
struct FxMat3 {
    m: [[Fx; 3]; 3],
}

impl FxMat3 {
    fn identity(ctx: &FxCtx) -> Self {
        let one = ctx.one();
        let zero = ctx.zero();
        FxMat3 { m: [[one, zero, zero], [zero, one, zero], [zero, zero, one]] }
    }

    fn mul(&self, ctx: &FxCtx, rhs: &FxMat3) -> FxMat3 {
        let mut out = FxMat3::identity(ctx);
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = ctx.zero();
                for (k, rhs_row) in rhs.m.iter().enumerate() {
                    acc = ctx.mac(acc, self.m[i][k], rhs_row[j]);
                }
                out.m[i][j] = acc;
            }
        }
        out
    }

    fn apply(&self, ctx: &FxCtx, v: [Fx; 3]) -> [Fx; 3] {
        let mut out = [ctx.zero(); 3];
        for (i, row) in self.m.iter().enumerate() {
            let mut acc = ctx.zero();
            for (k, &c) in row.iter().enumerate() {
                acc = ctx.mac(acc, c, v[k]);
            }
            out[i] = acc;
        }
        out
    }
}

/// Per-frame state: the quantised rotation matrix and FOV tangents — the
/// values the host writes into the PTE's memory-mapped configuration
/// registers before each frame (paper §6.2, "Init. RM D2R").
#[derive(Debug, Clone)]
struct FrameConfig {
    rotation: FxMat3,
    tan_half_h: Fx,
    tan_half_v: Fx,
    ndc_step_x: Fx,
    ndc_step_y: Fx,
}

/// The fixed-point projective-transformation engine.
///
/// # Example
///
/// ```
/// use evr_projection::fixed::FixedTransformer;
/// use evr_projection::{Projection, FilterMode, FovSpec, Viewport, ImageBuffer, Rgb};
/// use evr_math::fixed::FxFormat;
/// use evr_math::EulerAngles;
///
/// let src = ImageBuffer::from_fn(64, 32, |x, _| Rgb::new((x * 4) as u8, 0, 0));
/// let t = FixedTransformer::new(
///     FxFormat::q28_10(),
///     Projection::Erp,
///     FilterMode::Bilinear,
///     FovSpec::from_degrees(110.0, 110.0),
///     Viewport::new(16, 16),
/// );
/// let out = t.render_fov(&src, EulerAngles::default());
/// assert_eq!(out.width(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct FixedTransformer {
    ctx: FxCtx,
    projection: Projection,
    filter: FilterMode,
    fov: FovSpec,
    viewport: Viewport,
    // Quantised mapping constants (config-register values).
    half: Fx,
    inv_tau: Fx,
    inv_pi: Fx,
    third: Fx,
    four_over_pi_halved: Fx,
}

impl FixedTransformer {
    /// Creates a fixed-point transformer in the given numeric format.
    pub fn new(
        format: FxFormat,
        projection: Projection,
        filter: FilterMode,
        fov: FovSpec,
        viewport: Viewport,
    ) -> Self {
        let ctx = FxCtx::new(format);
        let half = ctx.from_f64(0.5);
        let inv_tau = ctx.from_f64(1.0 / std::f64::consts::TAU);
        let inv_pi = ctx.from_f64(1.0 / std::f64::consts::PI);
        let third = ctx.from_f64(1.0 / 3.0);
        let four_over_pi_halved = ctx.from_f64(2.0 / std::f64::consts::PI);
        FixedTransformer {
            ctx,
            projection,
            filter,
            fov,
            viewport,
            half,
            inv_tau,
            inv_pi,
            third,
            four_over_pi_halved,
        }
    }

    /// The numeric format in use.
    pub fn format(&self) -> FxFormat {
        self.ctx.format()
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

    /// Converts a fixed-point value produced by this transformer back to
    /// `f64` — how analyzers read a cached fixed coordinate stream.
    pub fn to_f64(&self, t: Fx) -> f64 {
        self.ctx.to_f64(t)
    }

    /// Saturation events observed so far (overflow diagnostics for the
    /// bit-width sweep).
    pub fn saturation_count(&self) -> u64 {
        self.ctx.saturation_count()
    }

    fn frame_config(&self, orientation: EulerAngles) -> FrameConfig {
        let ctx = &self.ctx;
        // D2R + rotation-matrix build, all in fixed point.
        let yaw = ctx.from_f64(orientation.yaw.0);
        let pitch = ctx.from_f64(-orientation.pitch.0);
        let roll = ctx.from_f64(orientation.roll.0);
        let (sy, cy) = ctx.sin_cos(yaw);
        let (sp, cp) = ctx.sin_cos(pitch);
        let (sr, cr) = ctx.sin_cos(roll);
        let zero = ctx.zero();
        let one = ctx.one();
        let ry = FxMat3 { m: [[cy, zero, sy], [zero, one, zero], [ctx.neg(sy), zero, cy]] };
        let rx = FxMat3 { m: [[one, zero, zero], [zero, cp, ctx.neg(sp)], [zero, sp, cp]] };
        let rz = FxMat3 { m: [[cr, ctx.neg(sr), zero], [sr, cr, zero], [zero, zero, one]] };
        let rotation = ry.mul(ctx, &rx).mul(ctx, &rz);
        FrameConfig {
            rotation,
            tan_half_h: ctx.from_f64((self.fov.h_radians().0 / 2.0).tan()),
            tan_half_v: ctx.from_f64((self.fov.v_radians().0 / 2.0).tan()),
            ndc_step_x: ctx.from_f64(2.0 / self.viewport.width as f64),
            ndc_step_y: ctx.from_f64(2.0 / self.viewport.height as f64),
        }
    }

    /// Maps output pixel `(i, j)` to normalised source coordinates, in
    /// fixed point. Exposed for stage-level validation against
    /// [`Transformer::map_pixel`].
    pub fn map_pixel(&self, i: u32, j: u32, orientation: EulerAngles) -> (f64, f64) {
        let cfg = self.frame_config(orientation);
        let (u, v) = self.map_pixel_fx(&cfg, i, j);
        (self.ctx.to_f64(u), self.ctx.to_f64(v))
    }

    fn map_pixel_fx(&self, cfg: &FrameConfig, i: u32, j: u32) -> (Fx, Fx) {
        let ctx = &self.ctx;
        // --- init: NDC ray construction (incremental adds in hardware) ---
        let fi = ctx.add(ctx.from_int(i as i64), self.half);
        let fj = ctx.add(ctx.from_int(j as i64), self.half);
        let ndc_x = ctx.sub(ctx.mul(cfg.ndc_step_x, fi), ctx.one());
        let ndc_y = ctx.sub(ctx.one(), ctx.mul(cfg.ndc_step_y, fj));
        let ray = [ctx.mul(ndc_x, cfg.tan_half_h), ctx.mul(ndc_y, cfg.tan_half_v), ctx.one()];
        // --- rotate (perspective update MACs) ---
        let p = cfg.rotation.apply(ctx, ray);
        // --- mapping ---
        match self.projection {
            Projection::Erp => {
                // C2S: lon = atan2(x, z); lat = asin(y / |p|).
                let lon = ctx.atan2(p[0], p[2]);
                let norm2 = ctx.mac(ctx.mac(ctx.mul(p[0], p[0]), p[1], p[1]), p[2], p[2]);
                let norm = ctx.sqrt(norm2);
                let lat = ctx.asin(ctx.div(p[1], norm));
                // LS_erp.
                let u = ctx.add(ctx.mul(lon, self.inv_tau), self.half);
                let v = ctx.sub(self.half, ctx.mul(lat, self.inv_pi));
                (self.clamp_unit(u), self.clamp_unit(v))
            }
            Projection::Cmp | Projection::Eac => {
                let (face, a, b) = self.cube_project_fx(p);
                let (sa, sb) = if self.projection == Projection::Cmp {
                    (self.ls_cmp_fx(a), self.ls_cmp_fx(b))
                } else {
                    (self.ls_eac_fx(a), self.ls_eac_fx(b))
                };
                self.c2f_fx(face, sa, sb)
            }
        }
    }

    fn cube_project_fx(&self, p: [Fx; 3]) -> (CubeFace, Fx, Fx) {
        let ctx = &self.ctx;
        let ax = ctx.abs(p[0]);
        let ay = ctx.abs(p[1]);
        let az = ctx.abs(p[2]);
        if ax >= ay && ax >= az {
            if p[0].0 > 0 {
                (CubeFace::PosX, ctx.neg(ctx.div(p[2], ax)), ctx.neg(ctx.div(p[1], ax)))
            } else {
                (CubeFace::NegX, ctx.div(p[2], ax), ctx.neg(ctx.div(p[1], ax)))
            }
        } else if ay >= ax && ay >= az {
            if p[1].0 > 0 {
                (CubeFace::PosY, ctx.div(p[0], ay), ctx.div(p[2], ay))
            } else {
                (CubeFace::NegY, ctx.div(p[0], ay), ctx.neg(ctx.div(p[2], ay)))
            }
        } else if p[2].0 > 0 {
            (CubeFace::PosZ, ctx.div(p[0], az), ctx.neg(ctx.div(p[1], az)))
        } else {
            (CubeFace::NegZ, ctx.neg(ctx.div(p[0], az)), ctx.neg(ctx.div(p[1], az)))
        }
    }

    fn ls_cmp_fx(&self, t: Fx) -> Fx {
        let ctx = &self.ctx;
        ctx.mul(ctx.add(t, ctx.one()), self.half)
    }

    fn ls_eac_fx(&self, t: Fx) -> Fx {
        let ctx = &self.ctx;
        // (4/π)·atan(t) scaled into [0, 1): ((2/π)·atan(t) · 2 + 1) / 2
        // = (2/π)·atan(t)·1 + 0.5 — fold the ×2/÷2 together.
        let ang = ctx.atan2(t, ctx.one());
        ctx.add(ctx.mul(ang, self.four_over_pi_halved), self.half)
    }

    fn c2f_fx(&self, face: CubeFace, su: Fx, sv: Fx) -> (Fx, Fx) {
        let ctx = &self.ctx;
        let (col, row) = face.layout_cell();
        let u = ctx.mul(ctx.add(ctx.from_int(col as i64), su), self.third);
        let v = ctx.mul(ctx.add(ctx.from_int(row as i64), sv), self.half);
        (self.clamp_unit(u), self.clamp_unit(v))
    }

    fn clamp_unit(&self, t: Fx) -> Fx {
        let one = self.ctx.one();
        if t.0 < 0 {
            self.ctx.zero()
        } else if t.0 >= one.0 {
            Fx(one.0 - 1)
        } else {
            t
        }
    }

    /// Runs the full fixed-point PT for one frame on the calling thread,
    /// as [`FixedTransformer::coordinate_map`] then
    /// [`FixedTransformer::render_with_map`].
    pub fn render_fov(&self, src: &ImageBuffer, orientation: EulerAngles) -> ImageBuffer {
        self.render_with_map(src, &self.coordinate_map(orientation))
    }

    /// Precomputes the fixed-point source coordinates of every output
    /// pixel at one orientation, row-major — the PTE's coordinate stream,
    /// reusable across frames and shared with the traffic analyzer via
    /// [`crate::lut::SamplingMapCache`].
    pub fn coordinate_map(&self, orientation: EulerAngles) -> Vec<(Fx, Fx)> {
        let cfg = self.frame_config(orientation);
        let (w, h) = (self.viewport.width, self.viewport.height);
        let mut map = Vec::with_capacity(self.viewport.pixels() as usize);
        for j in 0..h {
            for i in 0..w {
                map.push(self.map_pixel_fx(&cfg, i, j));
            }
        }
        map
    }

    /// Renders through a precomputed fixed-point coordinate map (the
    /// filtering half of the datapath).
    ///
    /// # Panics
    ///
    /// Panics if the map's length does not match the viewport.
    pub fn render_with_map(&self, src: &impl PixelSource, map: &[(Fx, Fx)]) -> ImageBuffer {
        assert_eq!(map.len() as u64, self.viewport.pixels(), "coordinate map size mismatch");
        let edge = EdgeMode::for_projection(self.projection);
        let pixels = map.iter().map(|&(u, v)| self.sample_fx(src, u, v, edge)).collect();
        ImageBuffer::from_pixels(self.viewport.width, self.viewport.height, pixels)
    }

    /// Fixed-point filtering: address generation in wide integers, blend
    /// weights in the Q format's fraction bits.
    fn sample_fx(&self, src: &impl PixelSource, u: Fx, v: Fx, edge: EdgeMode) -> Rgb {
        let frac = self.ctx.format().frac_bits();
        let w = src.width();
        let h = src.height();
        // Continuous pixel coordinate: u·w − 0.5, split into floor + frac.
        let split = |t: Fx, size: u32| -> (i64, i64) {
            let wide = t.0 as i128 * size as i128 - (1i128 << (frac - 1));
            let idx = wide >> frac;
            let rem = wide - (idx << frac);
            (idx as i64, rem as i64)
        };
        let (x0, fx) = split(u, w);
        let (y0, fy) = split(v, h);
        let resolve = |x: i64, y: i64| -> (u32, u32) {
            let yy = y.clamp(0, h as i64 - 1) as u32;
            let xx = match edge {
                EdgeMode::Clamp => x.clamp(0, w as i64 - 1) as u32,
                EdgeMode::WrapU => x.rem_euclid(w as i64) as u32,
            };
            (xx, yy)
        };
        match self.filter {
            FilterMode::Nearest => {
                let half = 1i64 << (frac - 1);
                let (x, y) = resolve(x0 + i64::from(fx >= half), y0 + i64::from(fy >= half));
                src.pixel(x, y)
            }
            FilterMode::Bilinear => {
                let (ax, ay) = resolve(x0, y0);
                let (bx, by) = resolve(x0 + 1, y0);
                let (cx, cy) = resolve(x0, y0 + 1);
                let (dx, dy) = resolve(x0 + 1, y0 + 1);
                let p00 = src.pixel(ax, ay);
                let p10 = src.pixel(bx, by);
                let p01 = src.pixel(cx, cy);
                let p11 = src.pixel(dx, dy);
                let one = 1i64 << frac;
                let half = 1i64 << (frac - 1);
                let blend1 = |a: u8, b: u8, f: i64| -> i64 {
                    (a as i64 * (one - f) + b as i64 * f + half) >> frac
                };
                let blend = |c00: u8, c10: u8, c01: u8, c11: u8| -> u8 {
                    let top = blend1(c00, c10, fx);
                    let bot = blend1(c01, c11, fx);
                    ((top * (one - fy) + bot * fy + half) >> frac).clamp(0, 255) as u8
                };
                Rgb::new(
                    blend(p00.r, p10.r, p01.r, p11.r),
                    blend(p00.g, p10.g, p01.g, p11.g),
                    blend(p00.b, p10.b, p01.b, p11.b),
                )
            }
        }
    }
}

/// Measures the mean normalised pixel error of the fixed-point datapath in
/// `format` against the `f64` reference, over the given poses — one data
/// point of the paper's Figure 11.
pub fn pixel_error_vs_reference(
    format: FxFormat,
    projection: Projection,
    filter: FilterMode,
    fov: FovSpec,
    viewport: Viewport,
    src: &ImageBuffer,
    poses: &[EulerAngles],
) -> f64 {
    let reference = Transformer::new(projection, filter, fov, viewport);
    let fixed = FixedTransformer::new(format, projection, filter, fov, viewport);
    let mut total = 0.0;
    for &pose in poses {
        let want = reference.render_fov(src, pose).image;
        let got = fixed.render_fov(src, pose);
        total += want.mean_abs_error(&got);
    }
    total / poses.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::render_panorama;
    use evr_math::Vec3;

    fn test_panorama(projection: Projection) -> ImageBuffer {
        render_panorama(projection, 96, 48, |d: Vec3| {
            Rgb::new(
                ((d.x * 3.0).sin() * 90.0 + 128.0) as u8,
                ((d.y * 2.0).cos() * 90.0 + 128.0) as u8,
                ((d.z * 4.0).sin() * 90.0 + 128.0) as u8,
            )
        })
    }

    fn poses() -> Vec<EulerAngles> {
        vec![
            EulerAngles::default(),
            EulerAngles::from_degrees(45.0, 10.0, 0.0),
            EulerAngles::from_degrees(-120.0, -30.0, 5.0),
            EulerAngles::from_degrees(170.0, 60.0, 0.0),
        ]
    }

    #[test]
    fn q28_10_error_is_visually_indistinguishable() {
        // The paper's acceptance threshold: mean pixel error below 1e-3.
        for projection in Projection::ALL {
            let src = test_panorama(projection);
            let err = pixel_error_vs_reference(
                FxFormat::q28_10(),
                projection,
                FilterMode::Bilinear,
                FovSpec::from_degrees(110.0, 110.0),
                Viewport::new(24, 24),
                &src,
                &poses(),
            );
            assert!(err < 1e-3, "{projection}: error {err}");
        }
    }

    #[test]
    fn narrow_integer_bits_blow_up() {
        // With 2 integer bits (sign + 1), π is unrepresentable: overflow
        // dominates and the error exceeds the acceptability threshold.
        let src = test_panorama(Projection::Erp);
        let err = pixel_error_vs_reference(
            FxFormat::new(28, 2).unwrap(),
            Projection::Erp,
            FilterMode::Bilinear,
            FovSpec::from_degrees(110.0, 110.0),
            Viewport::new(24, 24),
            &src,
            &poses(),
        );
        assert!(err > 1e-3, "error {err}");
    }

    #[test]
    fn error_decreases_with_fraction_width() {
        let src = test_panorama(Projection::Erp);
        let run = |total: u32| {
            pixel_error_vs_reference(
                FxFormat::new(total, 10).unwrap(),
                Projection::Erp,
                FilterMode::Bilinear,
                FovSpec::from_degrees(110.0, 110.0),
                Viewport::new(16, 16),
                &src,
                &poses()[..2],
            )
        };
        let coarse = run(18);
        let fine = run(40);
        assert!(fine <= coarse, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn map_pixel_matches_reference_closely() {
        let fov = FovSpec::from_degrees(100.0, 100.0);
        let vp = Viewport::new(16, 16);
        for projection in Projection::ALL {
            let reference = Transformer::new(projection, FilterMode::Nearest, fov, vp);
            let fixed =
                FixedTransformer::new(FxFormat::q28_10(), projection, FilterMode::Nearest, fov, vp);
            let pose = EulerAngles::from_degrees(25.0, -15.0, 0.0);
            for (i, j) in [(0u32, 0u32), (8, 8), (15, 15), (3, 12)] {
                let (u1, v1) = reference.map_pixel(i, j, pose);
                let (u2, v2) = fixed.map_pixel(i, j, pose);
                // Coordinates may legitimately differ near face seams where
                // a 1-LSB perturbation switches cube faces; require either
                // close coordinates or both near a seam boundary.
                let close = (u1 - u2).abs() < 2e-3 && (v1 - v2).abs() < 2e-3;
                assert!(close, "{projection} pixel ({i},{j}): ({u1},{v1}) vs ({u2},{v2})");
            }
        }
    }

    #[test]
    fn saturation_counter_reports_overflow() {
        let t = FixedTransformer::new(
            FxFormat::new(24, 2).unwrap(),
            Projection::Erp,
            FilterMode::Nearest,
            FovSpec::from_degrees(110.0, 110.0),
            Viewport::new(4, 4),
        );
        let src = test_panorama(Projection::Erp);
        let _ = t.render_fov(&src, EulerAngles::from_degrees(150.0, 0.0, 0.0));
        assert!(t.saturation_count() > 0);
    }

    #[test]
    fn nearest_filter_matches_reference_pixels() {
        // With nearest filtering, almost all pixels should be *identical*
        // to the reference (coordinate differences below half a texel).
        let src = test_panorama(Projection::Erp);
        let fov = FovSpec::from_degrees(90.0, 90.0);
        let vp = Viewport::new(20, 20);
        let reference = Transformer::new(Projection::Erp, FilterMode::Nearest, fov, vp);
        let fixed = FixedTransformer::new(
            FxFormat::q28_10(),
            Projection::Erp,
            FilterMode::Nearest,
            fov,
            vp,
        );
        let pose = EulerAngles::from_degrees(10.0, 5.0, 0.0);
        let a = reference.render_fov(&src, pose).image;
        let b = fixed.render_fov(&src, pose);
        let identical = a.pixels().iter().zip(b.pixels()).filter(|(x, y)| x == y).count();
        assert!(identical as f64 / 400.0 > 0.95, "only {identical}/400 identical");
    }
}
