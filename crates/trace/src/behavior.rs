//! The object-tracking behaviour model that generates user traces.
//!
//! Paper §5.1 establishes two facts about real VR viewers that the model
//! reproduces by construction:
//!
//! 1. attention centres on visual objects — so the model's dominant state
//!    is *smooth pursuit* of a scene object;
//! 2. users keep tracking the same object for seconds at a time — so dwell
//!    times are drawn from a heavy-tailed (log-normal) distribution whose
//!    parameters are calibrated against the Fig. 6 CDF.
//!
//! Users also "randomly orient the head to explore the scene" (§4), which
//! is what produces FOV misses; the per-video `explore_rate` is the knob
//! that reproduces the paper's per-video miss rates (5.3%–12.0%, §8.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

use evr_math::{sphere::step_towards, EulerAngles, Radians, SphericalCoord, Vec3};
use evr_video::library::VideoId;
use evr_video::scene::{Scene, SceneObject};

use crate::sample::{HeadTrace, PoseSample};

/// Calibration parameters of the behaviour model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorParams {
    /// Probability per second of breaking off into free exploration.
    pub explore_rate: f64,
    /// Exploration episode length bounds, seconds.
    pub explore_duration: (f64, f64),
    /// Log-normal dwell-time parameters (μ, σ) of tracking episodes, in
    /// log-seconds. Calibrated against Fig. 6.
    pub dwell_log_mu: f64,
    /// See [`BehaviorParams::dwell_log_mu`].
    pub dwell_log_sigma: f64,
    /// Smooth-pursuit angular speed, rad/s.
    pub pursuit_speed: f64,
    /// Saccade angular speed, rad/s.
    pub saccade_speed: f64,
    /// Gaze jitter amplitude, radians.
    pub jitter: f64,
    /// Probability that the next tracked object is the nearest one (object
    /// groups keep users within a cluster, §5.3).
    pub nearby_switch_bias: f64,
}

impl Default for BehaviorParams {
    fn default() -> Self {
        BehaviorParams {
            explore_rate: 0.040,
            explore_duration: (1.0, 3.0),
            dwell_log_mu: 1.2,
            dwell_log_sigma: 0.8,
            pursuit_speed: 0.6,
            saccade_speed: 3.0,
            jitter: 0.015,
            nearby_switch_bias: 0.75,
        }
    }
}

/// Per-video calibration (paper §8.2: FOV-miss rates range from 5.3% for
/// Timelapse to 12.0% for RS; exploration is the miss mechanism).
pub fn params_for(video: VideoId) -> BehaviorParams {
    let base = BehaviorParams::default();
    match video {
        VideoId::Elephant => BehaviorParams { explore_rate: 0.035, ..base },
        VideoId::Paris => BehaviorParams { explore_rate: 0.045, dwell_log_mu: 1.05, ..base },
        VideoId::Rs => {
            BehaviorParams { explore_rate: 0.045, dwell_log_mu: 1.3, pursuit_speed: 1.1, ..base }
        }
        VideoId::Nyc => BehaviorParams { explore_rate: 0.042, ..base },
        VideoId::Rhino => BehaviorParams { explore_rate: 0.028, dwell_log_mu: 1.3, ..base },
        VideoId::Timelapse => BehaviorParams { explore_rate: 0.024, dwell_log_mu: 1.35, ..base },
    }
}

#[derive(Debug, Clone, Copy)]
enum GazeState {
    /// Smoothly pursuing object `target` until `until`.
    Tracking { target: usize, until: f64 },
    /// Saccading towards object `target`; tracking starts on arrival.
    Acquiring { target: usize },
    /// Free exploration towards `dir` until `until`.
    Exploring { dir: Vec3, until: f64 },
}

/// Generates one user's head trace for `scene`.
///
/// `user_seed` individualises the user (the study uses seeds `0..59`);
/// `duration` is capped to the scene duration; `sample_rate` is in Hz.
/// A one-off trace: callers generating many traces on one grid share an
/// [`ObjectTracks`] instead, and get the same bits.
///
/// # Panics
///
/// Panics if the scene has no objects, `duration <= 0` or
/// `sample_rate <= 0`.
pub fn generate_user_trace(
    scene: &Scene,
    params: &BehaviorParams,
    user_seed: u64,
    duration: f64,
    sample_rate: f64,
) -> HeadTrace {
    ObjectTracks::new(scene, duration, sample_rate).generate(params, user_seed)
}

/// Every scene object's direction on one sampling grid, shared by all
/// the traces generated on it.
///
/// A cell holds one object's [`SceneObject::position`] at
/// `step as f64 * dt` and that direction's spherical coordinates (the
/// jitter centre). Neither depends on the user, so a system evaluates
/// each trajectory once instead of once per user. Cells are filled on
/// first use: a one-off trace reads only the few objects its gaze
/// visits, and an eagerly filled table would cost it every object at
/// every step. A cell is a pure function of `(object, step)`, so threads
/// filling the same cell concurrently store the same bits, and a trace
/// is bit-identical however its cells were filled (DESIGN.md §17).
///
/// # Example
///
/// ```
/// use evr_trace::behavior::{generate_user_trace, params_for, ObjectTracks};
/// use evr_video::library::{scene_for, VideoId};
///
/// let scene = scene_for(VideoId::Rs);
/// let params = params_for(VideoId::Rs);
/// let tracks = ObjectTracks::new(&scene, 2.0, 30.0);
/// for user in 0..3 {
///     let one_off = generate_user_trace(&scene, &params, user, 2.0, 30.0);
///     assert_eq!(tracks.generate(&params, user), one_off);
/// }
/// ```
#[derive(Debug)]
pub struct ObjectTracks {
    objects: Vec<SceneObject>,
    sample_rate: f64,
    dt: f64,
    steps: usize,
    /// One object's direction at one step and its spherical coordinates,
    /// as the bits of `[x, y, z, lon, lat]`; `lat` reads [`EMPTY`] until
    /// the cell is filled. Step-major: the cell of `(step, object)` is at
    /// `step * objects.len() + object`.
    cells: Vec<[AtomicU64; 5]>,
}

/// The `lat` bits of an unfilled cell: a NaN, which `from_vector` of a
/// unit direction never returns.
const EMPTY: u64 = u64::MAX;

impl ObjectTracks {
    /// The empty table for `scene` sampled at `sample_rate` Hz over
    /// `duration` seconds, capped to the scene duration: the grid of
    /// [`generate_user_trace`] with the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if the scene has no objects, `duration <= 0` or
    /// `sample_rate <= 0`.
    pub fn new(scene: &Scene, duration: f64, sample_rate: f64) -> Self {
        assert!(!scene.objects().is_empty(), "behaviour model requires at least one object");
        assert!(duration > 0.0 && sample_rate > 0.0, "duration and sample rate must be positive");
        let duration = duration.min(scene.duration());
        let steps = (duration * sample_rate).round() as usize;
        let objects = scene.objects().to_vec();
        let cells = (0..(steps + 1) * objects.len())
            .map(|_| [0, 0, 0, 0, EMPTY].map(AtomicU64::new))
            .collect();
        ObjectTracks { objects, sample_rate, dt: 1.0 / sample_rate, steps, cells }
    }

    /// Generates one user's head trace on this grid; `user_seed`
    /// individualises the user (the study uses seeds `0..59`).
    pub fn generate(&self, params: &BehaviorParams, user_seed: u64) -> HeadTrace {
        let dt = self.dt;
        let mut rng = SmallRng::seed_from_u64(user_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));

        // Users start looking at some object.
        let first = rng.gen_range(0..self.objects.len());
        let mut gaze = self.position(0, first);
        let mut state = GazeState::Tracking { target: first, until: dwell(&mut rng, params) };
        let mut jitter_phase = rng.gen_range(0.0..std::f64::consts::TAU);

        let mut samples = Vec::with_capacity(self.steps + 1);
        for step in 0..=self.steps {
            let t = step as f64 * dt;
            state = self.advance_state(params, &mut rng, state, gaze, step, t);
            let target_dir = match state {
                GazeState::Tracking { target, .. } | GazeState::Acquiring { target } => {
                    let (dir, centre) = self.cell(step, target);
                    jittered(dir, centre, params.jitter, jitter_phase, t)
                }
                GazeState::Exploring { dir, .. } => dir,
            };
            let speed = match state {
                GazeState::Tracking { .. } => params.pursuit_speed,
                _ => params.saccade_speed,
            };
            gaze = step_towards(gaze, target_dir, Radians(speed * dt));
            jitter_phase += dt * 1.3;
            samples.push(PoseSample { t, pose: gaze_to_pose(gaze) });
        }
        HeadTrace::from_samples(samples)
    }

    /// The cell of `object` at `step`, filled on first use.
    fn cell(&self, step: usize, object: usize) -> (Vec3, SphericalCoord) {
        let words = &self.cells[step * self.objects.len() + object];
        // Acquire pairs with the Release store of `lat` below: a filled
        // `lat` makes the four words stored before it visible.
        let lat = words[4].load(Ordering::Acquire);
        if lat != EMPTY {
            let [x, y, z, lon] = [0, 1, 2, 3].map(|i| words[i].load(Ordering::Relaxed));
            let [x, y, z, lon, lat] = [x, y, z, lon, lat].map(f64::from_bits);
            return (Vec3::new(x, y, z), SphericalCoord { lon: Radians(lon), lat: Radians(lat) });
        }
        let dir = self.objects[object].position(step as f64 * self.dt);
        let centre = SphericalCoord::from_vector(dir).expect("object directions are unit");
        // Threads racing to fill this cell store the same bits.
        for (word, v) in words.iter().zip([dir.x, dir.y, dir.z, centre.lon.0]) {
            word.store(v.to_bits(), Ordering::Relaxed);
        }
        words[4].store(centre.lat.0.to_bits(), Ordering::Release);
        (dir, centre)
    }

    fn position(&self, step: usize, object: usize) -> Vec3 {
        self.cell(step, object).0
    }

    fn advance_state(
        &self,
        params: &BehaviorParams,
        rng: &mut SmallRng,
        state: GazeState,
        gaze: Vec3,
        step: usize,
        t: f64,
    ) -> GazeState {
        match state {
            GazeState::Tracking { target, until } => {
                // Spontaneous exploration: Poisson at `explore_rate` per
                // second, one Bernoulli draw per sample.
                let dt_prob = params.explore_rate / self.sample_rate;
                if rng.gen_bool(dt_prob.clamp(0.0, 1.0)) {
                    return GazeState::Exploring {
                        dir: random_explore_dir(rng),
                        until: t + rng
                            .gen_range(params.explore_duration.0..params.explore_duration.1),
                    };
                }
                if t >= until {
                    let next = self.pick_next_object(params, rng, target, step);
                    return GazeState::Acquiring { target: next };
                }
                GazeState::Tracking { target, until }
            }
            GazeState::Acquiring { target } => {
                let obj = self.position(step, target);
                if gaze.dot(obj).clamp(-1.0, 1.0).acos() < 0.05 {
                    GazeState::Tracking { target, until: t + dwell(rng, params) }
                } else {
                    GazeState::Acquiring { target }
                }
            }
            GazeState::Exploring { dir, until } => {
                if t >= until {
                    // Return to the object nearest the current gaze.
                    let target = self.nearest_object(dir, step);
                    GazeState::Acquiring { target }
                } else {
                    GazeState::Exploring { dir, until }
                }
            }
        }
    }

    fn pick_next_object(
        &self,
        params: &BehaviorParams,
        rng: &mut SmallRng,
        current: usize,
        step: usize,
    ) -> usize {
        let n = self.objects.len();
        if n == 1 {
            return 0;
        }
        if rng.gen_bool(params.nearby_switch_bias) {
            // Nearest other object to the current one (stay within the group).
            let here = self.position(step, current);
            let mut best = current;
            let mut best_d = f64::INFINITY;
            for i in 0..n {
                if i == current {
                    continue;
                }
                let d = here.dot(self.position(step, i)).clamp(-1.0, 1.0).acos();
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        } else {
            // Jump to a uniformly random other object.
            let mut pick = rng.gen_range(0..n - 1);
            if pick >= current {
                pick += 1;
            }
            pick
        }
    }

    fn nearest_object(&self, dir: Vec3, step: usize) -> usize {
        // Ties go to the lowest index: `min_by` keeps the first minimum.
        (0..self.objects.len())
            .min_by(|&a, &b| {
                let da = dir.dot(self.position(step, a));
                let db = dir.dot(self.position(step, b));
                db.partial_cmp(&da).expect("dot products are finite")
            })
            .expect("scene has objects")
    }
}

fn dwell(rng: &mut SmallRng, params: &BehaviorParams) -> f64 {
    // Log-normal via Box–Muller.
    let u1: f64 = rng.gen_range(1e-9..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
    (params.dwell_log_mu + params.dwell_log_sigma * z).exp().clamp(0.4, 45.0)
}

fn random_explore_dir(rng: &mut SmallRng) -> Vec3 {
    // Exploration favours the horizon band, like real viewers.
    let lon = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
    let lat = rng.gen_range(-0.6f64..0.6);
    SphericalCoord::new(Radians(lon), Radians(lat)).to_unit_vector()
}

fn jittered(dir: Vec3, centre: SphericalCoord, amp: f64, phase: f64, t: f64) -> Vec3 {
    if amp == 0.0 {
        return dir;
    }
    SphericalCoord::new(
        Radians(centre.lon.0 + amp * (phase + 2.1 * t).sin()),
        Radians(centre.lat.0 + 0.6 * amp * (phase * 1.7 + 1.4 * t).cos()),
    )
    .to_unit_vector()
}

fn gaze_to_pose(gaze: Vec3) -> EulerAngles {
    let s = SphericalCoord::from_vector(gaze).expect("gaze is unit");
    EulerAngles::new(s.lon, s.lat, Radians(0.0)).normalized()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests race concurrent table fillers on purpose")]
mod tests {
    use super::*;
    use evr_video::library::scene_for;
    use evr_video::scene::Trajectory;

    fn trace_bits(trace: &HeadTrace) -> Vec<[u64; 4]> {
        let bits = |s: &PoseSample| [s.t, s.pose.yaw.0, s.pose.pitch.0, s.pose.roll.0];
        trace.samples().iter().map(|s| bits(s).map(f64::to_bits)).collect()
    }

    #[test]
    fn every_cell_is_its_trajectory_sample_bit_for_bit() {
        let vec_bits = |v: Vec3| [v.x, v.y, v.z].map(f64::to_bits);
        let (mut waypoints, mut orbits, mut wobbling) = (0, 0, 0);
        for video in VideoId::ALL {
            let scene = scene_for(video);
            let tracks = ObjectTracks::new(&scene, scene.duration(), 30.0);
            // Some cells filled by traces first, the rest on the read below.
            for user in 0..3 {
                tracks.generate(&params_for(video), user);
            }
            for (i, obj) in scene.objects().iter().enumerate() {
                match obj.trajectory {
                    Trajectory::Waypoints(_) => waypoints += 1,
                    Trajectory::Orbit { .. } => orbits += 1,
                    Trajectory::Static { wobble, .. } => wobbling += usize::from(wobble != 0.0),
                }
                for step in 0..=tracks.steps {
                    let dir = obj.position(step as f64 * (1.0 / 30.0));
                    let centre = SphericalCoord::from_vector(dir).unwrap();
                    let cell = tracks.cell(step, i);
                    assert_eq!(vec_bits(cell.0), vec_bits(dir), "{video:?} object {i} step {step}");
                    assert_eq!(cell.1.lon.0.to_bits(), centre.lon.0.to_bits());
                    assert_eq!(cell.1.lat.0.to_bits(), centre.lat.0.to_bits());
                }
            }
        }
        assert!(waypoints > 0 && orbits > 0 && wobbling > 0, "{waypoints}/{orbits}/{wobbling}");
    }

    #[test]
    fn threads_racing_to_fill_one_table_generate_the_one_off_traces() {
        let scene = scene_for(VideoId::Rhino);
        let params = params_for(VideoId::Rhino);
        let tracks = ObjectTracks::new(&scene, 20.0, 30.0);
        let start = std::sync::Barrier::new(2);
        let racers: Vec<Vec<HeadTrace>> = std::thread::scope(|scope| {
            let race = || {
                start.wait();
                (0..59).map(|seed| tracks.generate(&params, seed)).collect()
            };
            let handles = [scope.spawn(race), scope.spawn(race)];
            handles.map(|h| h.join().unwrap()).into()
        });
        for (seed, (a, b)) in racers[0].iter().zip(&racers[1]).enumerate() {
            let one_off =
                trace_bits(&generate_user_trace(&scene, &params, seed as u64, 20.0, 30.0));
            assert_eq!(trace_bits(a), one_off, "seed {seed}, first thread");
            assert_eq!(trace_bits(b), one_off, "seed {seed}, second thread");
        }
    }

    #[test]
    fn exploration_onsets_follow_the_rate_per_second_at_any_sample_rate() {
        let scene = scene_for(VideoId::Rhino);
        let params = params_for(VideoId::Rhino);
        let seconds = 40_000.0;
        for sample_rate in [10.0, 30.0, 60.0] {
            let tracks = ObjectTracks::new(&scene, 1.0, sample_rate);
            let mut rng = SmallRng::seed_from_u64(sample_rate as u64);
            let tracking = GazeState::Tracking { target: 0, until: f64::INFINITY };
            let steps = (seconds * sample_rate) as usize;
            let onsets = (0..steps)
                .filter(|_| {
                    let next =
                        tracks.advance_state(&params, &mut rng, tracking, Vec3::FORWARD, 0, 0.0);
                    matches!(next, GazeState::Exploring { .. })
                })
                .count() as f64;
            // Binomial: `steps` draws at `explore_rate / sample_rate` each.
            let p = params.explore_rate / sample_rate;
            let sigma = (steps as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (onsets - steps as f64 * p).abs() < 5.0 * sigma,
                "{sample_rate} Hz: {:.4} onsets/s for explore_rate {}",
                onsets / seconds,
                params.explore_rate
            );
        }
    }

    #[test]
    fn trace_has_expected_length_and_monotone_time() {
        let scene = scene_for(VideoId::Elephant);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Elephant), 0, 5.0, 30.0);
        assert_eq!(tr.len(), 151);
        assert!(tr.samples().windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let scene = scene_for(VideoId::Rhino);
        let p = params_for(VideoId::Rhino);
        let a = generate_user_trace(&scene, &p, 3, 5.0, 30.0);
        let b = generate_user_trace(&scene, &p, 3, 5.0, 30.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let scene = scene_for(VideoId::Rhino);
        let p = params_for(VideoId::Rhino);
        let a = generate_user_trace(&scene, &p, 1, 5.0, 30.0);
        let b = generate_user_trace(&scene, &p, 2, 5.0, 30.0);
        assert_ne!(a, b);
    }

    #[test]
    fn head_velocity_is_humanly_plausible() {
        let scene = scene_for(VideoId::Paris);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Paris), 11, 20.0, 30.0);
        let v = tr.mean_angular_velocity().to_degrees();
        // Real head-movement traces average well below continuous 180°/s.
        assert!(v < 120.0, "mean angular velocity {v}°/s");
    }

    #[test]
    fn pitch_stays_physical() {
        let scene = scene_for(VideoId::Nyc);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Nyc), 21, 20.0, 30.0);
        for s in tr.samples() {
            assert!(s.pose.pitch.to_degrees().0.abs() <= 90.0);
        }
    }

    #[test]
    fn duration_caps_to_scene() {
        let scene = scene_for(VideoId::Timelapse);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Timelapse), 2, 1e6, 10.0);
        assert!(tr.duration() <= scene.duration() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_scene_panics() {
        let scene = evr_video::scene::Scene::new(
            "empty",
            evr_video::scene::Background { detail: 1.0, motion: 0.0, seed: 0 },
            vec![],
            10.0,
        );
        let _ = generate_user_trace(&scene, &BehaviorParams::default(), 0, 5.0, 30.0);
    }

    #[test]
    fn gaze_spends_most_time_near_objects() {
        // The core §5.1 property, checked directly on the generator.
        let scene = scene_for(VideoId::Rhino);
        let tr = generate_user_trace(&scene, &params_for(VideoId::Rhino), 17, 30.0, 30.0);
        let mut near = 0usize;
        for s in tr.samples() {
            let gaze = s.pose.view_direction();
            let close = scene
                .object_positions(s.t)
                .iter()
                .any(|(_, p)| gaze.dot(*p).clamp(-1.0, 1.0).acos() < 0.45);
            near += close as usize;
        }
        let frac = near as f64 / tr.len() as f64;
        assert!(frac > 0.7, "only {frac:.2} of samples near objects");
    }
}
