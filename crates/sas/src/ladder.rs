//! Multi-rung (adaptive-bitrate) encoding of the original stream.
//!
//! The paper's content provider ("published to a content provider such as
//! YouTube and then streamed... upon requests", §2) serves every video as
//! a bitrate ladder. This module ingests the original panorama at several
//! quantiser rungs — rendering each segment's source frames once and
//! encoding them per rung — so the client-side ABR simulator
//! (`evr-client`'s `abr` module) can run against *real* per-rung sizes
//! rather than an assumed rate curve.

use serde::{Deserialize, Serialize};

use evr_video::codec::CodecConfig;
use evr_video::scene::Scene;

use crate::config::SasConfig;
use crate::ingest::{encode_segment, IngestError, SegmentPlan};

/// Per-segment, per-rung wire sizes (target scale) of one video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderCatalog {
    /// The quantiser of each rung, in ascending quality order:
    /// `quantizers[0]` is the coarsest (cheapest) rung.
    quantizers: Vec<u8>,
    /// `bytes[segment][rung]`, target scale.
    bytes: Vec<Vec<u64>>,
    /// Segment duration, seconds.
    segment_duration_s: f64,
}

impl LadderCatalog {
    /// The rung quantisers, coarsest (cheapest) first.
    pub fn quantizers(&self) -> &[u8] {
        &self.quantizers
    }

    /// Number of segments.
    pub fn segment_count(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Segment duration, seconds.
    pub fn segment_duration(&self) -> f64 {
        self.segment_duration_s
    }

    /// Wire bytes of `segment` at `rung`, or `None` if either is out of
    /// range.
    pub fn bytes(&self, segment: u32, rung: usize) -> Option<u64> {
        self.bytes.get(segment as usize)?.get(rung).copied()
    }

    /// The whole `bytes[segment][rung]` matrix.
    pub fn matrix(&self) -> &[Vec<u64>] {
        &self.bytes
    }

    /// Mean bitrate of a rung across the video, bits/second, or `None`
    /// if `rung` is out of range.
    pub fn rung_bitrate_bps(&self, rung: usize) -> Option<f64> {
        let total: u64 = self.bytes.iter().map(|seg| seg.get(rung)).sum::<Option<u64>>()?;
        Some(total as f64 * 8.0 / (self.bytes.len() as f64 * self.segment_duration_s))
    }
}

/// Ingests `duration_s` seconds of `scene` at every quantiser in
/// `quantizers` (coarsest first; the order is kept as the rung order)
/// with `workers` segment workers (`0` = one per core; clamped to
/// `1..=64` like every fan-out). The ladder is byte-identical for any
/// worker count.
///
/// # Errors
///
/// [`IngestError::InvalidConfig`] if `quantizers` is empty, not strictly
/// descending (coarser = larger quantiser first) or outside the codec's
/// `1..=50`, and otherwise the errors of [`crate::ingest_video_with`]
/// for the same `config` and duration.
pub fn ingest_ladder_with(
    scene: &Scene,
    config: &SasConfig,
    quantizers: &[u8],
    duration_s: f64,
    workers: usize,
) -> Result<LadderCatalog, IngestError> {
    let descending = quantizers.windows(2).all(|w| w[0] > w[1]);
    if quantizers.is_empty() || !descending || !quantizers.iter().all(|q| (1..=50).contains(q)) {
        return Err(IngestError::InvalidConfig(format!(
            "rung quantisers {quantizers:?} must be non-empty, within 1..=50 and strictly \
             descending (coarsest first)"
        )));
    }
    let plan = SegmentPlan::new(scene, config, duration_s)?;
    let scale = config.src_byte_scale();
    let bytes = evr_sched::run_chunked(plan.segment_count(), workers, 0, |seg| {
        let segment = plan.segment(seg);
        quantizers
            .iter()
            .map(|&q| {
                let codec = CodecConfig::new(config.segment_frames, q);
                encode_segment(codec, segment.start, &segment.sources).scaled_bytes(scale)
            })
            .collect()
    });
    Ok(LadderCatalog {
        quantizers: quantizers.to_vec(),
        bytes,
        segment_duration_s: plan.segment_duration(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::{scene_for, VideoId};

    fn catalog() -> LadderCatalog {
        let cfg = SasConfig::tiny_for_tests();
        ingest_ladder_with(&scene_for(VideoId::Rhino), &cfg, &[30, 18, 10], 1.0, 0)
            .expect("valid ladder")
    }

    #[test]
    fn rungs_are_monotone_in_size() {
        let c = catalog();
        assert_eq!(c.quantizers(), &[30, 18, 10]);
        for seg in 0..c.segment_count() {
            assert!(c.bytes(seg, 0) < c.bytes(seg, 1), "segment {seg}");
            assert!(c.bytes(seg, 1) < c.bytes(seg, 2), "segment {seg}");
        }
        assert!(c.rung_bitrate_bps(0) < c.rung_bitrate_bps(2));
    }

    #[test]
    fn out_of_range_segment_or_rung_is_none() {
        let c = catalog();
        assert_eq!(c.bytes(c.segment_count(), 0), None);
        assert_eq!(c.bytes(0, 3), None);
        assert!(c.bytes(0, 2).is_some());
        assert_eq!(c.rung_bitrate_bps(3), None);
    }

    #[test]
    fn ladder_is_worker_independent() {
        let scene = scene_for(VideoId::Rhino);
        let cfg = SasConfig::tiny_for_tests();
        let serial = ingest_ladder_with(&scene, &cfg, &[30, 18, 10], 1.0, 1);
        let parallel = ingest_ladder_with(&scene, &cfg, &[30, 18, 10], 1.0, 4);
        assert_eq!(serial, parallel, "fan-out must be byte-identical");
    }

    #[test]
    fn segment_geometry_matches_config() {
        let c = catalog();
        assert_eq!(c.segment_count(), 4); // 30 frames at 8 per segment
        assert!((c.segment_duration() - 8.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn unordered_rungs_are_rejected() {
        let (scene, cfg) = (scene_for(VideoId::Rs), SasConfig::tiny_for_tests());
        for rungs in [&[10, 18][..], &[], &[18, 18], &[60, 30], &[18, 0]] {
            let got = ingest_ladder_with(&scene, &cfg, rungs, 0.5, 1);
            assert!(matches!(got, Err(IngestError::InvalidConfig(_))), "{rungs:?}: {got:?}");
        }
    }

    #[test]
    fn invalid_config_and_empty_duration_are_errors() {
        let scene = scene_for(VideoId::Rs);
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.segment_frames = 0;
        let got = ingest_ladder_with(&scene, &cfg, &[30, 10], 1.0, 1);
        assert!(matches!(got, Err(IngestError::InvalidConfig(_))), "{got:?}");
        let cfg = SasConfig::tiny_for_tests();
        assert_eq!(
            ingest_ladder_with(&scene, &cfg, &[30, 10], 0.001, 1),
            Err(IngestError::NoFrames)
        );
    }
}
