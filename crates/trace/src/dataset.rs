//! The synthetic user study: 59 users per benchmark video.
//!
//! Mirrors the role of the Corbillon et al. dataset in the paper (§8.1):
//! "head movement traces from 59 real users viewing different 360° VR
//! videos", replayed to drive every end-to-end experiment.

use serde::{Deserialize, Serialize};

use evr_video::library::{scene_for, VideoId};

use crate::behavior::{params_for, ObjectTracks};
use crate::sample::HeadTrace;

/// Number of users in the study, matching the paper's dataset.
pub const USER_COUNT: usize = 59;

/// All traces for one video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserStudy {
    /// The video watched.
    pub video: VideoId,
    /// One trace per user.
    pub traces: Vec<HeadTrace>,
    /// Sample rate the traces were generated at, Hz.
    pub sample_rate: f64,
}

impl UserStudy {
    /// Generates the full 59-user study for `video` at `sample_rate` Hz
    /// over the scene's whole duration.
    ///
    /// # Example
    ///
    /// ```
    /// use evr_trace::dataset::UserStudy;
    /// use evr_video::library::VideoId;
    ///
    /// let study = UserStudy::generate(VideoId::Rs, 30.0);
    /// assert_eq!(study.traces.len(), 59);
    /// ```
    pub fn generate(video: VideoId, sample_rate: f64) -> Self {
        Self::generate_n(video, sample_rate, USER_COUNT)
    }

    /// Generates a reduced study with `users` users (for quick tests and
    /// CI-speed experiment runs; the full study uses [`USER_COUNT`]).
    ///
    /// # Panics
    ///
    /// Panics if `users == 0`.
    pub fn generate_n(video: VideoId, sample_rate: f64, users: usize) -> Self {
        assert!(users > 0, "study needs at least one user");
        let scene = scene_for(video);
        let params = params_for(video);
        let tracks = ObjectTracks::new(&scene, scene.duration(), sample_rate);
        // Seed users distinctly per (video, user).
        let traces = (0..users as u64)
            .map(|u| tracks.generate(&params, u ^ ((video as u64) << 32)))
            .collect();
        UserStudy { video, traces, sample_rate }
    }

    /// Mean trace duration, seconds.
    pub fn mean_duration(&self) -> f64 {
        self.traces.iter().map(|t| t.duration()).sum::<f64>() / self.traces.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_has_distinct_users() {
        let study = UserStudy::generate_n(VideoId::Timelapse, 10.0, 4);
        assert_eq!(study.traces.len(), 4);
        assert_ne!(study.traces[0], study.traces[1]);
        assert_ne!(study.traces[2], study.traces[3]);
    }

    #[test]
    fn studies_differ_across_videos() {
        let a = UserStudy::generate_n(VideoId::Rhino, 10.0, 1);
        let b = UserStudy::generate_n(VideoId::Paris, 10.0, 1);
        assert_ne!(a.traces[0], b.traces[0]);
    }

    #[test]
    fn mean_duration_positive() {
        let study = UserStudy::generate_n(VideoId::Nyc, 10.0, 2);
        assert!(study.mean_duration() > 50.0);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let _ = UserStudy::generate_n(VideoId::Rs, 10.0, 0);
    }
}
