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

use evr_projection::ImageBuffer;
use evr_video::codec::{CodecConfig, EncodedSegment, Encoder};
use evr_video::delta::DeltaSegment;
use evr_video::scene::Scene;

use crate::config::SasConfig;
use crate::ingest::FPS;

/// Per-segment, per-rung wire sizes (target scale) of one video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderCatalog {
    /// The quantiser of each rung, in ascending quality order:
    /// `quantizers[0]` is the coarsest (cheapest) rung.
    quantizers: Vec<u8>,
    /// `bytes[segment][rung]`, target scale.
    bytes: Vec<Vec<u64>>,
    /// `delta_bytes[segment][rung]`, target scale: the cost of each rung
    /// when lower rungs are delta-encoded against the segment's top rung
    /// ([`SegmentRepr::delta_or_full`]; the top rung and any rung whose
    /// delta is not smaller keep their full cost). This is what a
    /// delta-resident store keeps and what a delta-upgrade moves on the
    /// wire.
    delta_bytes: Vec<Vec<u64>>,
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

    /// Wire bytes of `segment` at `rung`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn bytes(&self, segment: u32, rung: usize) -> u64 {
        self.bytes[segment as usize][rung]
    }

    /// The whole `bytes[segment][rung]` matrix.
    pub fn matrix(&self) -> &[Vec<u64>] {
        &self.bytes
    }

    /// Delta-representation wire bytes of `segment` at `rung` (equal to
    /// [`bytes`] for the top rung and wherever the delta fell back).
    ///
    /// [`bytes`]: LadderCatalog::bytes
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn delta_bytes(&self, segment: u32, rung: usize) -> u64 {
        self.delta_bytes[segment as usize][rung]
    }

    /// The whole `delta_bytes[segment][rung]` matrix.
    pub fn delta_matrix(&self) -> &[Vec<u64>] {
        &self.delta_bytes
    }

    /// Fraction of total ladder bytes saved by delta-encoding lower rungs
    /// against the top rung, in `[0, 1)`.
    pub fn delta_savings_fraction(&self) -> f64 {
        let full: u64 = self.bytes.iter().flatten().sum();
        let delta: u64 = self.delta_bytes.iter().flatten().sum();
        if full == 0 {
            0.0
        } else {
            1.0 - delta as f64 / full as f64
        }
    }

    /// Mean bitrate of a rung across the video, bits/second.
    pub fn rung_bitrate_bps(&self, rung: usize) -> f64 {
        let total: u64 = self.bytes.iter().map(|seg| seg[rung]).sum();
        total as f64 * 8.0 / (self.bytes.len() as f64 * self.segment_duration_s)
    }

    /// Mean wire-byte fraction of `rung` relative to the top (finest)
    /// rung, in `(0, 1]` — the calibration input for the degradation
    /// ladder's lower-bitrate fallback (`FaultSetup::low_rung_scale`).
    ///
    /// # Panics
    ///
    /// Panics if `rung` is out of range.
    pub fn rung_byte_fraction(&self, rung: usize) -> f64 {
        let top = self.quantizers.len() - 1;
        assert!(rung <= top, "rung {rung} out of range (ladder has {} rungs)", top + 1);
        let rung_total: u64 = self.bytes.iter().map(|seg| seg[rung]).sum();
        let top_total: u64 = self.bytes.iter().map(|seg| seg[top]).sum();
        rung_total as f64 / top_total as f64
    }
}

/// Ingests `scene` at every quantiser in `quantizers` (given coarsest
/// first; the order is preserved as the rung order).
///
/// # Panics
///
/// Panics if `quantizers` is empty or not strictly decreasing in
/// coarseness (i.e. values must be strictly descending: coarser = larger
/// quantiser first).
pub fn ingest_ladder(
    scene: &Scene,
    config: &SasConfig,
    quantizers: &[u8],
    duration_s: f64,
) -> LadderCatalog {
    ingest_ladder_with(scene, config, quantizers, duration_s, 0)
}

/// [`ingest_ladder`] with an explicit worker count (`0` = one per core;
/// clamped to `1..=64` like every fan-out). The planner used to
/// hardcode auto, so callers — the ingest bench's pinned sweeps in
/// particular — could not control its parallelism.
pub fn ingest_ladder_with(
    scene: &Scene,
    config: &SasConfig,
    quantizers: &[u8],
    duration_s: f64,
    workers: usize,
) -> LadderCatalog {
    assert!(!quantizers.is_empty(), "ladder needs at least one rung");
    assert!(
        quantizers.windows(2).all(|w| w[0] > w[1]),
        "rung quantisers must be strictly descending (coarsest first)"
    );
    let (src_w, src_h) = config.analysis_src;
    let duration = duration_s.min(scene.duration());
    let total_frames = (duration * FPS).floor() as u64;
    let seg_len = config.segment_frames as u64;
    let segment_count = total_frames.div_ceil(seg_len);
    let scale = config.src_byte_scale();

    // Every segment row is a pure function of `(scene, config, seg)`, so
    // the rung encodings fan out through the deterministic chunked
    // scheduler of `evr_sched` — byte-identical to the serial loop for
    // any worker count. Delta costs ride along: the last rung is the top
    // (finest) one, and each lower rung is delta-encoded against it,
    // falling back to its full cost whenever the delta is not smaller.
    let rows = evr_sched::run_chunked(segment_count, workers, 0, |seg| {
        let start = seg * seg_len;
        let end = (start + seg_len).min(total_frames);
        let sources: Vec<ImageBuffer> = (start..end)
            .map(|i| {
                scene.render_image(i as f64 / FPS, evr_projection::Projection::Erp, src_w, src_h)
            })
            .collect();
        let encoded: Vec<EncodedSegment> = quantizers
            .iter()
            .map(|&q| {
                let mut enc = Encoder::new(CodecConfig::new(config.segment_frames, q));
                enc.force_intra();
                EncodedSegment {
                    start_index: start,
                    frames: sources.iter().map(|img| enc.encode_frame(img)).collect(),
                }
            })
            .collect();
        let top = encoded.last().expect("at least one rung");
        let row: Vec<u64> = encoded.iter().map(|seg| seg.scaled_bytes(scale)).collect();
        // The fallback decision happens at the accounting scale: headers
        // do not scale with resolution, so the winner at analysis scale
        // (where the delta's smaller headers dominate) is not always the
        // winner at target scale (where payloads dominate).
        let delta_row: Vec<u64> = encoded
            .iter()
            .zip(&row)
            .enumerate()
            .map(|(r, (seg, &full))| {
                if r + 1 == encoded.len() {
                    full // the top rung stays full
                } else {
                    DeltaSegment::encode(seg, top).map_or(full, |d| d.scaled_bytes(scale).min(full))
                }
            })
            .collect();
        (row, delta_row)
    });
    let (bytes, delta_bytes) = rows.into_iter().unzip();
    LadderCatalog {
        quantizers: quantizers.to_vec(),
        bytes,
        delta_bytes,
        segment_duration_s: seg_len as f64 / FPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::{scene_for, VideoId};

    fn catalog() -> LadderCatalog {
        ingest_ladder(&scene_for(VideoId::Rhino), &SasConfig::tiny_for_tests(), &[30, 18, 10], 1.0)
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
    fn byte_fractions_are_monotone_and_top_is_one() {
        let c = catalog();
        let f0 = c.rung_byte_fraction(0);
        let f1 = c.rung_byte_fraction(1);
        assert!(f0 > 0.0 && f0 < f1 && f1 < 1.0, "f0 {f0} f1 {f1}");
        assert!((c.rung_byte_fraction(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_bytes_never_exceed_full_and_save_overall() {
        let c = catalog();
        for seg in 0..c.segment_count() {
            for rung in 0..c.quantizers().len() {
                assert!(
                    c.delta_bytes(seg, rung) <= c.bytes(seg, rung),
                    "segment {seg} rung {rung}: delta {} > full {}",
                    c.delta_bytes(seg, rung),
                    c.bytes(seg, rung)
                );
            }
            let top = c.quantizers().len() - 1;
            assert_eq!(c.delta_bytes(seg, top), c.bytes(seg, top), "top rung stays full");
        }
        assert!(c.delta_savings_fraction() > 0.0, "{}", c.delta_savings_fraction());
    }

    #[test]
    fn ladder_delta_bytes_are_worker_independent() {
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
    #[should_panic(expected = "strictly descending")]
    fn unordered_rungs_panic() {
        let _ =
            ingest_ladder(&scene_for(VideoId::Rs), &SasConfig::tiny_for_tests(), &[10, 18], 0.5);
    }
}
