//! Procedural 360° scenes with ground-truth object annotations.
//!
//! The paper's key observation (§5.1) is that VR users track *visual
//! objects*, so the streaming server can predict viewing areas from object
//! trajectories alone. Reproducing that requires content whose objects
//! have known positions over time. This module renders parametric
//! panoramic scenes — a procedural background plus moving objects — and
//! exposes the exact object tracks that the synthetic detector
//! (`evr-semantics`) perturbs and the behaviour model (`evr-trace`)
//! follows.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

use evr_math::round::round_to_u8;
use evr_math::{Radians, SphericalCoord, Vec3};
use evr_projection::{ImageBuffer, Projection, Rgb};

use crate::frame::{Frame, VideoMeta};

/// Identifier of an object within a scene.
pub type ObjectId = u32;

/// Semantic class of a visual object (the detector reports these, mirroring
/// YOLO's class output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Wildlife (elephants, rhinos, ...).
    Animal,
    /// People.
    Person,
    /// Cars, boats, carriages.
    Vehicle,
    /// Buildings and monuments.
    Landmark,
    /// Signs and screens.
    Signage,
}

impl ObjectClass {
    /// A saturated base colour per class, keeping objects visually
    /// distinctive for the codec and the quality metrics.
    pub fn base_color(self) -> Rgb {
        match self {
            ObjectClass::Animal => Rgb::new(150, 110, 70),
            ObjectClass::Person => Rgb::new(220, 170, 140),
            ObjectClass::Vehicle => Rgb::new(200, 40, 40),
            ObjectClass::Landmark => Rgb::new(160, 160, 190),
            ObjectClass::Signage => Rgb::new(240, 220, 60),
        }
    }
}

/// A parametric trajectory on the unit sphere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Trajectory {
    /// Fixed direction with a small sinusoidal wobble (grazing animals,
    /// landmarks viewed from a drifting camera).
    Static {
        /// Nominal direction.
        dir: Vec3,
        /// Wobble amplitude in radians.
        wobble: f64,
    },
    /// Steady longitudinal drift with sinusoidal latitude oscillation
    /// (walking people, passing vehicles).
    Orbit {
        /// Starting longitude (radians).
        lon0: f64,
        /// Mean latitude (radians).
        lat0: f64,
        /// Longitude rate (radians / second).
        lon_rate: f64,
        /// Latitude oscillation amplitude (radians).
        lat_amp: f64,
        /// Latitude oscillation frequency (Hz).
        lat_freq: f64,
        /// Phase offset (radians).
        phase: f64,
    },
    /// Piecewise great-circle path through timed waypoints.
    Waypoints(
        /// `(time seconds, direction)` control points, time-ascending.
        Vec<(f64, Vec3)>,
    ),
}

impl Trajectory {
    /// The object's direction at time `t` (unit vector).
    ///
    /// # Panics
    ///
    /// Panics if a `Waypoints` trajectory is empty.
    pub fn position(&self, t: f64) -> Vec3 {
        match self {
            Trajectory::Static { dir, wobble } => {
                let base = dir.normalized().expect("static trajectory needs non-zero dir");
                if *wobble == 0.0 {
                    return base;
                }
                let s = SphericalCoord::from_vector(base).expect("non-zero");
                SphericalCoord::new(
                    Radians(s.lon.0 + wobble * (0.7 * t).sin()),
                    Radians(s.lat.0 + 0.5 * wobble * (0.9 * t + 1.0).cos()),
                )
                .to_unit_vector()
            }
            Trajectory::Orbit { lon0, lat0, lon_rate, lat_amp, lat_freq, phase } => {
                SphericalCoord::new(
                    Radians(lon0 + lon_rate * t),
                    Radians(lat0 + lat_amp * (std::f64::consts::TAU * lat_freq * t + phase).sin()),
                )
                .to_unit_vector()
            }
            Trajectory::Waypoints(points) => {
                assert!(!points.is_empty(), "waypoint trajectory must be non-empty");
                if t <= points[0].0 {
                    return points[0].1.normalized().expect("non-zero waypoint");
                }
                for pair in points.windows(2) {
                    let (t0, a) = pair[0];
                    let (t1, b) = pair[1];
                    if t <= t1 {
                        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 1.0 };
                        return a
                            .normalized()
                            .expect("non-zero waypoint")
                            .slerp(b.normalized().expect("non-zero waypoint"), f);
                    }
                }
                points.last().unwrap().1.normalized().expect("non-zero waypoint")
            }
        }
    }
}

/// A visual object in a scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Stable identifier within the scene.
    pub id: ObjectId,
    /// Semantic class.
    pub class: ObjectClass,
    /// Motion over time.
    pub trajectory: Trajectory,
    /// Angular radius of the object's footprint on the sphere.
    pub angular_radius: Radians,
    /// Texture seed (varies the painted pattern between objects).
    pub seed: u64,
}

impl SceneObject {
    /// Ground-truth direction at time `t`.
    pub fn position(&self, t: f64) -> Vec3 {
        self.trajectory.position(t)
    }
}

/// Procedural background parameters.
///
/// `detail` controls spatial frequency (city skyline vs open savanna) and
/// `motion` controls how fast the texture evolves over time (a camera on a
/// moving vehicle vs a static tripod). Together they determine the codec's
/// intra sizes and residual sizes — the content statistics behind the
/// per-video differences in Figures 3b, 13 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Background {
    /// Spatial detail multiplier (≈1 low … ≈8 high).
    pub detail: f64,
    /// Temporal motion rate (radians/second of texture drift).
    pub motion: f64,
    /// Palette seed.
    pub seed: u64,
}

/// A complete 360° scene: background + objects + duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    name: String,
    background: Background,
    objects: Vec<SceneObject>,
    duration: f64,
}

impl Scene {
    /// Creates a scene.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive or object ids are not unique.
    pub fn new(
        name: impl Into<String>,
        background: Background,
        objects: Vec<SceneObject>,
        duration: f64,
    ) -> Self {
        assert!(duration > 0.0, "scene duration must be positive");
        let mut ids: Vec<_> = objects.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), objects.len(), "object ids must be unique");
        Scene { name: name.into(), background, objects, duration }
    }

    /// Scene name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ground-truth objects.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Background parameters.
    pub fn background(&self) -> Background {
        self.background
    }

    /// Scene duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Ground-truth `(id, direction)` pairs at time `t`.
    pub fn object_positions(&self, t: f64) -> Vec<(ObjectId, Vec3)> {
        self.objects.iter().map(|o| (o.id, o.position(t))).collect()
    }

    /// Shades the scene in direction `dir` at time `t`. Convenience for
    /// single samples; bulk rendering goes through [`Scene::frame_shader`],
    /// which hoists the per-frame object state out of the pixel loop.
    pub fn shade(&self, dir: Vec3, t: f64) -> Rgb {
        self.frame_shader(t).shade(dir)
    }

    /// Prepares the per-frame shading state (object positions and cosine
    /// radii) for time `t`.
    pub fn frame_shader(&self, t: f64) -> FrameShader<'_> {
        FrameShader {
            scene: self,
            t,
            positions: self.objects.iter().map(|o| o.position(t)).collect(),
            cos_radii: self.objects.iter().map(|o| o.angular_radius.0.cos()).collect(),
        }
    }

    /// Background colour in direction `dir`; `horizon` is
    /// `tanh(4 · dir.y)`, which the ERP path computes once per row.
    fn shade_background(&self, dir: Vec3, t: f64, horizon: f64) -> Rgb {
        let b = self.background;
        let s = hash_unit(b.seed);
        let drift = b.motion * t;
        // Three quasi-independent oscillators over the direction vector,
        // at the configured spatial frequency, drifting over time.
        let f1 = (b.detail * (3.1 * dir.x + 1.7 * dir.z) + drift + 6.0 * s).sin();
        let f2 = (b.detail * (2.3 * dir.y - 2.9 * dir.x) + 0.7 * drift + 3.0 * s).sin();
        let f3 = (b.detail * (1.9 * dir.z + 2.2 * dir.y) - 0.4 * drift).cos();
        // Sky/ground split (`horizon`) keeps large-scale structure (helps
        // the codec's intra prediction behave realistically).
        let r = 110.0 + 50.0 * f1 + 30.0 * horizon;
        let g = 120.0 + 45.0 * f2 + 35.0 * horizon;
        let bch = 130.0 + 40.0 * f3 + 60.0 * horizon;
        Rgb::new(round_to_u8(r), round_to_u8(g), round_to_u8(bch))
    }

    /// Renders the panoramic image for time `t` in the given projection.
    ///
    /// ERP frames take a separable path: longitude trig once per column,
    /// latitude trig and the background horizon once per row. These are
    /// the same calls [`Projection::frame_to_sphere`] makes per pixel,
    /// so the image is bit-identical to the generic
    /// [`render_panorama`](evr_projection::transform::render_panorama)
    /// path that CMP and EAC take (DESIGN.md §11).
    pub fn render_image(
        &self,
        t: f64,
        projection: Projection,
        width: u32,
        height: u32,
    ) -> ImageBuffer {
        let shader = self.frame_shader(t);
        match projection {
            Projection::Erp => shader.render_erp(width, height),
            Projection::Cmp | Projection::Eac => {
                evr_projection::transform::render_panorama(projection, width, height, |dir| {
                    shader.shade(dir)
                })
            }
        }
    }

    /// Renders the frame at `index` of a stream described by `meta`.
    pub fn render_frame(&self, index: u64, meta: &VideoMeta) -> Frame {
        let t = meta.timestamp(index);
        Frame::new(self.render_image(t, meta.projection, meta.width, meta.height), index, t)
    }
}

/// Per-frame shading state: object positions evaluated once, cosine
/// radii precomputed for the cheap dot-product reject in the pixel loop.
#[derive(Debug, Clone)]
pub struct FrameShader<'a> {
    scene: &'a Scene,
    t: f64,
    positions: Vec<Vec3>,
    cos_radii: Vec<f64>,
}

impl FrameShader<'_> {
    /// The frame time this shader was prepared for.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Shades the scene in direction `dir`.
    pub fn shade(&self, dir: Vec3) -> Rgb {
        self.shade_among(0..self.positions.len(), dir, || (4.0 * dir.y).tanh())
    }

    /// ERP frame of `width`×`height`: the per-pixel directions of
    /// `Projection::Erp.frame_to_sphere` with the longitude wrap and its
    /// sin/cos hoisted per column and the latitude clamp, its sin/cos
    /// and the horizon hoisted per row.
    ///
    /// Each row also drops the objects no pixel of it can hit. On the
    /// row at latitude φ, `dir = (cos φ·sin λ, sin φ, cos φ·cos λ)`, so
    /// `dot(dir, c)` is at most `cos φ·hypot(c.x, c.z) + sin φ·c.y`
    /// (`cos φ ≥ 0` on the clamped latitude range). An object whose
    /// bound plus [`ROW_CULL_MARGIN`] stays below its `cos_r` fails the
    /// per-pixel reject on every pixel of the row; the rest are tested
    /// in their original order, so ties resolve as before (DESIGN.md
    /// §11).
    fn render_erp(&self, width: u32, height: u32) -> ImageBuffer {
        let columns: Vec<(f64, f64)> = (0..width)
            .map(|x| {
                let u = (x as f64 + 0.5) / width as f64;
                let lon = Radians((u - 0.5) * std::f64::consts::TAU).wrapped().0;
                (lon.sin(), lon.cos())
            })
            .collect();
        let reach: Vec<f64> = self.positions.iter().map(|c| c.x.hypot(c.z)).collect();
        let mut row_objects = Vec::with_capacity(self.positions.len());
        let mut pixels = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            let v = (y as f64 + 0.5) / height as f64;
            let lat = ((0.5 - v) * std::f64::consts::PI)
                .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
            let (sp, cp) = (lat.sin(), lat.cos());
            let horizon = (4.0 * sp).tanh();
            row_objects.clear();
            row_objects.extend(self.objects_on_row(&reach, sp, cp));
            pixels.extend(columns.iter().map(|&(sl, cl)| {
                self.shade_among(
                    row_objects.iter().copied(),
                    Vec3::new(cp * sl, sp, cp * cl),
                    || horizon,
                )
            }));
        }
        ImageBuffer::from_pixels(width, height, pixels)
    }

    /// Indices, in order, of the objects that some pixel of the ERP row
    /// with latitude sine `sp` and cosine `cp` can hit: those whose
    /// bound `cp · reach[k] + sp · c.y` plus [`ROW_CULL_MARGIN`] reaches
    /// their `cos_r`, where `reach[k]` is `hypot(c.x, c.z)` of object
    /// `k`'s centre `c`.
    fn objects_on_row<'s>(
        &'s self,
        reach: &'s [f64],
        sp: f64,
        cp: f64,
    ) -> impl Iterator<Item = usize> + 's {
        (0..self.positions.len()).filter(move |&k| {
            let bound = cp * reach[k] + sp * self.positions[k].y;
            // Only a definite "below" drops the object: a NaN bound
            // keeps it, as the per-pixel reject does.
            (bound + ROW_CULL_MARGIN).partial_cmp(&self.cos_radii[k]) != Some(Ordering::Less)
        })
    }

    /// Shades `dir` considering only the objects at the indices
    /// `candidates` yields, in that order; the background horizon is
    /// supplied by the caller and evaluated only where no object covers
    /// `dir`.
    fn shade_among(
        &self,
        candidates: impl IntoIterator<Item = usize>,
        dir: Vec3,
        horizon: impl FnOnce() -> f64,
    ) -> Rgb {
        // Objects paint over the background, nearest-to-centre wins.
        let mut best: Option<(f64, usize)> = None;
        for k in candidates {
            // Cheap reject on the dot product before paying for acos.
            let cosang = dir.dot(self.positions[k]).clamp(-1.0, 1.0);
            if cosang < self.cos_radii[k] {
                continue;
            }
            let ang = cosang.acos();
            match best {
                Some((prev, _)) if prev <= ang => {}
                _ => best = Some((ang, k)),
            }
        }
        if let Some((ang, k)) = best {
            return shade_object(&self.scene.objects[k], ang, dir, self.t);
        }
        self.scene.shade_background(dir, self.t, horizon())
    }
}

/// Slack added to a row's largest possible `dot(dir, c)` before the ERP
/// render drops an object for that row. The computed per-pixel dot
/// product exceeds the computed bound by less than `1e-14` (about a
/// dozen roundings of terms whose magnitudes sum to about 1), so a row
/// is culled only when every pixel's reject is certain.
const ROW_CULL_MARGIN: f64 = 1e-9;

fn shade_object(obj: &SceneObject, ang: f64, dir: Vec3, t: f64) -> Rgb {
    let base = obj.class.base_color();
    let s = hash_unit(obj.seed);
    // Radial rings + angular stripes give each object internal texture.
    let f = ang / obj.angular_radius.0.max(1e-9);
    let rings = (f * (6.0 + 6.0 * s) + t * 0.5).sin();
    let stripes = ((dir.x * 17.0 + dir.y * 13.0) * (1.0 + s) + obj.seed as f64).sin();
    let m = 0.75 + 0.2 * rings + 0.1 * stripes - 0.3 * f;
    Rgb::new(
        round_to_u8(base.r as f64 * m),
        round_to_u8(base.g as f64 * m),
        round_to_u8(base.b as f64 * m),
    )
}

fn hash_unit(seed: u64) -> f64 {
    // SplitMix64 finaliser → [0, 1).
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_scene() -> Scene {
        Scene::new(
            "demo",
            Background { detail: 3.0, motion: 0.2, seed: 1 },
            vec![
                SceneObject {
                    id: 0,
                    class: ObjectClass::Animal,
                    trajectory: Trajectory::Static { dir: Vec3::FORWARD, wobble: 0.0 },
                    angular_radius: Radians(0.2),
                    seed: 11,
                },
                SceneObject {
                    id: 1,
                    class: ObjectClass::Vehicle,
                    trajectory: Trajectory::Orbit {
                        lon0: 1.0,
                        lat0: 0.0,
                        lon_rate: 0.3,
                        lat_amp: 0.1,
                        lat_freq: 0.2,
                        phase: 0.0,
                    },
                    angular_radius: Radians(0.15),
                    seed: 22,
                },
            ],
            60.0,
        )
    }

    #[test]
    fn object_paints_over_background() {
        let scene = demo_scene();
        let on_obj = scene.shade(Vec3::FORWARD, 0.0);
        let off_obj = scene.shade(-Vec3::FORWARD, 0.0);
        // The animal's brownish base colour dominates at the centre.
        assert!(on_obj.r > on_obj.b, "object pixel {on_obj}");
        assert_ne!(on_obj, off_obj);
    }

    #[test]
    fn orbit_moves_over_time() {
        let scene = demo_scene();
        let p0 = scene.objects()[1].position(0.0);
        let p10 = scene.objects()[1].position(10.0);
        let moved = p0.angle_to(p10).unwrap();
        assert!(moved > 0.5, "moved {moved} rad");
    }

    #[test]
    fn static_with_zero_wobble_is_fixed() {
        let t = Trajectory::Static { dir: Vec3::RIGHT, wobble: 0.0 };
        assert_eq!(t.position(0.0), t.position(100.0));
    }

    #[test]
    fn waypoints_interpolate_and_clamp() {
        let t = Trajectory::Waypoints(vec![(0.0, Vec3::FORWARD), (10.0, Vec3::RIGHT)]);
        assert!((t.position(-1.0) - Vec3::FORWARD).norm() < 1e-12);
        assert!((t.position(20.0) - Vec3::RIGHT).norm() < 1e-12);
        let mid = t.position(5.0);
        let expect = Vec3::new(1.0, 0.0, 1.0).normalized().unwrap();
        assert!((mid - expect).norm() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_object_ids_panic() {
        let obj = SceneObject {
            id: 0,
            class: ObjectClass::Person,
            trajectory: Trajectory::Static { dir: Vec3::UP, wobble: 0.0 },
            angular_radius: Radians(0.1),
            seed: 0,
        };
        let _ = Scene::new(
            "bad",
            Background { detail: 1.0, motion: 0.0, seed: 0 },
            vec![obj.clone(), obj],
            10.0,
        );
    }

    #[test]
    fn render_frame_sets_index_and_timestamp() {
        let scene = demo_scene();
        let meta = VideoMeta::new(32, 16, 30.0, Projection::Erp);
        let f = scene.render_frame(15, &meta);
        assert_eq!(f.index, 15);
        assert!((f.timestamp - 0.5).abs() < 1e-12);
        assert_eq!(f.image.width(), 32);
    }

    #[test]
    fn background_motion_changes_pixels_over_time() {
        let still =
            Scene::new("still", Background { detail: 3.0, motion: 0.0, seed: 5 }, vec![], 10.0);
        let moving =
            Scene::new("moving", Background { detail: 3.0, motion: 3.0, seed: 5 }, vec![], 10.0);
        let a0 = still.render_image(0.0, Projection::Erp, 32, 16);
        let a1 = still.render_image(1.0, Projection::Erp, 32, 16);
        let b0 = moving.render_image(0.0, Projection::Erp, 32, 16);
        let b1 = moving.render_image(1.0, Projection::Erp, 32, 16);
        assert!(a0.mean_abs_error(&a1) < 1e-6, "static background should not change");
        assert!(b0.mean_abs_error(&b1) > 0.01, "moving background should change");
    }

    /// The generic per-pixel render the ERP fast path replaces.
    fn render_image_reference(scene: &Scene, t: f64, width: u32, height: u32) -> ImageBuffer {
        let shader = scene.frame_shader(t);
        evr_projection::transform::render_panorama(Projection::Erp, width, height, |dir| {
            shader.shade(dir)
        })
    }

    /// The separable ERP render before the per-row object cull: every
    /// pixel tests every object.
    fn render_erp_reference(scene: &Scene, t: f64, width: u32, height: u32) -> ImageBuffer {
        let shader = scene.frame_shader(t);
        let columns: Vec<(f64, f64)> = (0..width)
            .map(|x| {
                let u = (x as f64 + 0.5) / width as f64;
                let lon = Radians((u - 0.5) * std::f64::consts::TAU).wrapped().0;
                (lon.sin(), lon.cos())
            })
            .collect();
        let mut pixels = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            let v = (y as f64 + 0.5) / height as f64;
            let lat = ((0.5 - v) * std::f64::consts::PI)
                .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
            let (sp, cp) = (lat.sin(), lat.cos());
            let horizon = (4.0 * sp).tanh();
            pixels.extend(columns.iter().map(|&(sl, cl)| {
                let dir = Vec3::new(cp * sl, sp, cp * cl);
                shader.shade_among(0..scene.objects.len(), dir, || horizon)
            }));
        }
        ImageBuffer::from_pixels(width, height, pixels)
    }

    /// Both oracles agree with the culled render on `scene`.
    fn check_erp_render(scene: &Scene, t: f64, w: u32, h: u32) -> Result<(), TestCaseError> {
        let got = scene.render_image(t, Projection::Erp, w, h);
        prop_assert!(
            got == render_erp_reference(scene, t, w, h),
            "{} at t = {t}, {w}x{h}",
            scene.name
        );
        prop_assert!(
            got == render_image_reference(scene, t, w, h),
            "{} at t = {t}, {w}x{h}",
            scene.name
        );
        Ok(())
    }

    #[test]
    fn erp_render_matches_generic_path_for_every_library_scene() {
        for id in crate::library::VideoId::ALL {
            let scene = crate::library::scene_for(id);
            for (t, w, h) in [(0.0, 320, 160), (1.7, 320, 160), (0.4, 33, 17), (2.0, 1, 1)] {
                check_erp_render(&scene, t, w, h).unwrap();
            }
        }
    }

    /// A scene of `Signage` objects at the given directions and radii.
    fn scene_with_objects(objects: &[(Vec3, f64)]) -> Scene {
        let objects = objects
            .iter()
            .enumerate()
            .map(|(i, &(dir, radius))| SceneObject {
                id: i as ObjectId,
                class: ObjectClass::Signage,
                trajectory: Trajectory::Static { dir, wobble: 0.0 },
                angular_radius: Radians(radius),
                seed: i as u64 * 7 + 3,
            })
            .collect();
        Scene::new("objects", Background { detail: 3.0, motion: 0.5, seed: 7 }, objects, 10.0)
    }

    #[test]
    fn row_cull_drops_objects_that_no_pixel_of_the_row_can_hit() {
        // Caps of radius 0.2 rad on the equator and on the north pole,
        // and one of radius 2 rad on the south pole.
        let scene = scene_with_objects(&[(Vec3::FORWARD, 0.2), (Vec3::UP, 0.2), (-Vec3::UP, 2.0)]);
        let shader = scene.frame_shader(0.0);
        let reach: Vec<f64> = shader.positions.iter().map(|c| c.x.hypot(c.z)).collect();
        let on_row = |lat: f64| -> Vec<usize> {
            shader.objects_on_row(&reach, lat.sin(), lat.cos()).collect()
        };
        assert_eq!(on_row(0.0), [0, 2], "equator");
        assert_eq!(on_row(0.1), [0, 2], "inside the equatorial cap's band");
        assert_eq!(on_row(0.5), [0usize; 0], "north of the large cap, south of the polar one");
        assert_eq!(on_row(1.45), [1], "inside the polar cap");
        assert_eq!(on_row(std::f64::consts::FRAC_PI_2), [1], "north pole");
        assert_eq!(on_row(-1.0), [2], "inside the large southern cap");
    }

    #[test]
    fn row_cull_keeps_objects_on_the_poles_and_covering_the_sphere() {
        // Exactly on each pole, a radius of one pixel row up to past π,
        // overlapping objects tying on angle, and a row landing on the
        // pole (odd heights put a row centre on the equator, not the
        // pole; the clamp only bites for the 1-row frame).
        let cases = [
            vec![(Vec3::UP, 0.01), (-Vec3::UP, 0.01)],
            vec![(Vec3::UP, 0.3), (Vec3::UP, 0.3), (-Vec3::UP, 1.2)],
            vec![(Vec3::UP, std::f64::consts::PI), (Vec3::FORWARD, 0.2)],
            vec![(-Vec3::UP, 3.2), (Vec3::new(0.0, 1.0, 1e-12), 0.05)],
        ];
        for objects in &cases {
            let scene = scene_with_objects(objects);
            for (w, h) in [(64, 32), (33, 17), (7, 1), (1, 1)] {
                check_erp_render(&scene, 0.3, w, h).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random objects within 0.3 rad of a pole, radii from under a
        /// pixel row to past π.
        #[test]
        fn prop_row_cull_matches_oracles_near_the_poles(
            objects in proptest::collection::vec(
                (any::<bool>(), 0.0f64..0.3, -3.2f64..3.2, 0.001f64..3.3),
                1..8,
            ),
            w in 1u32..48,
            h in 1u32..32,
            t in 0.0f64..10.0,
        ) {
            let objects: Vec<(Vec3, f64)> = objects
                .iter()
                .map(|&(north, off, lon, radius)| {
                    let lat = std::f64::consts::FRAC_PI_2 - off;
                    let lat = if north { lat } else { -lat };
                    (SphericalCoord::new(Radians(lon), Radians(lat)).to_unit_vector(), radius)
                })
                .collect();
            check_erp_render(&scene_with_objects(&objects), t, w, h)?;
        }

        #[test]
        fn prop_erp_render_matches_generic_path(
            w in 1u32..40,
            h in 1u32..24,
            t in 0.0f64..60.0,
            video in 0usize..6,
        ) {
            // Odd sizes, 1×1 and 1-wide/1-high strips included.
            let scene = crate::library::scene_for(crate::library::VideoId::ALL[video]);
            check_erp_render(&scene, t, w, h)?;
        }
    }

    proptest! {
        #[test]
        fn prop_trajectories_stay_unit(t in 0.0f64..120.0, rate in -0.5f64..0.5) {
            let tr = Trajectory::Orbit {
                lon0: 0.3, lat0: 0.1, lon_rate: rate, lat_amp: 0.2, lat_freq: 0.1, phase: 0.5,
            };
            prop_assert!((tr.position(t).norm() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_shade_is_deterministic(x in -1.0f64..1.0, y in -1.0f64..1.0, t in 0.0f64..60.0) {
            prop_assume!(x.abs() + y.abs() > 0.05);
            let scene = demo_scene();
            let dir = Vec3::new(x, y, 0.5).normalized().unwrap();
            prop_assert_eq!(scene.shade(dir, t), scene.shade(dir, t));
        }
    }
}
