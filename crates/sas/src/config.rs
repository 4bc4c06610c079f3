//! SAS configuration: segmentation, clustering, FOV margins, codec
//! settings and the analysis/target scale model.

use serde::{Deserialize, Serialize};

use evr_math::Degrees;
use evr_projection::FovSpec;
use evr_semantics::SyntheticDetector;
use evr_video::codec::CodecConfig;

use crate::tiles::TileGrid;

/// Full configuration of the SAS pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SasConfig {
    /// Frames per temporal segment (§5.3: 30, matching the GOP).
    pub segment_frames: u32,
    /// Device field of view the FOV videos must serve.
    pub device_fov: FovSpec,
    /// Extra FOV margin pre-rendered around the device FOV, degrees per
    /// axis (keeps small head jitter inside the stream).
    pub fov_margin: Degrees,
    /// Cluster-centroid smoothing factor `[0, 1)`.
    pub smoothing: f64,
    /// Maximum clusters (FOV videos) per segment.
    pub max_clusters: usize,
    /// Maximum angular spread (radians) of a cluster around its centroid
    /// for k-selection; clusters wider than this split.
    pub cluster_spread: f64,
    /// Fraction of objects used to create FOV videos (the Fig. 14 storage
    /// / energy knob; clusters are kept largest-first until the fraction
    /// is met).
    pub object_utilization: f64,
    /// The detector used at ingestion.
    pub detector: SyntheticDetector,
    /// Codec settings for original segments.
    pub codec: CodecConfig,
    /// Quantiser for FOV videos. Slightly coarser than the original's:
    /// FOV frames are re-encodes of already-coded, magnified content, so
    /// matching the original's quantiser would spend bits sharpening
    /// generation noise. Even so, FOV streams carry more bits per pixel
    /// than the original (they watch the detail-dense horizon band).
    pub fov_quantizer: u8,
    /// Resolution content is actually rendered/encoded at (analysis
    /// scale): source frames.
    pub analysis_src: (u32, u32),
    /// Analysis-scale FOV-video frames.
    pub analysis_fov: (u32, u32),
    /// Paper-scale source resolution (4K).
    pub target_src: (u32, u32),
    /// Paper-scale FOV-video resolution.
    pub target_fov: (u32, u32),
    /// Tile grid for the tiled delivery mode (`T`/`T+H` variants). Must
    /// divide `analysis_src` into 8-aligned tiles.
    pub tile_grid: TileGrid,
    /// Quantiser of the coarsest tiled rung; `0` means *auto* — twice
    /// the original's quantiser, clamped to the codec's 50 cap.
    pub tiled_low_quantizer: u8,
}

impl Default for SasConfig {
    fn default() -> Self {
        SasConfig {
            segment_frames: 30,
            device_fov: FovSpec::hdk2(),
            fov_margin: Degrees(10.0),
            smoothing: 0.3,
            max_clusters: 8,
            cluster_spread: 0.30,
            object_utilization: 1.0,
            detector: SyntheticDetector::default_for_eval(0x5A5),
            codec: CodecConfig::new(30, 12),
            fov_quantizer: 15,
            // Angular-density-matched analysis rasters: the source spans
            // 360° over 320 px (0.89 px/°) and the 120° FOV stream spans
            // 112 px (0.93 px/°), mirroring how at target scale a 1440p
            // FOV frame cannot carry more angular detail than the 4K
            // source provides. Matched densities keep the bits-per-pixel
            // statistics comparable, which the byte-scale model relies on.
            analysis_src: (320, 160),
            analysis_fov: (112, 112),
            target_src: (3840, 2160),
            target_fov: (2560, 1440),
            // 8×4 over 320×160 → 40×40 tiles, 8-aligned.
            tile_grid: TileGrid::default(),
            tiled_low_quantizer: 0,
        }
    }
}

impl SasConfig {
    /// A miniature configuration for unit tests: 8-frame segments and
    /// very small rasters.
    pub fn tiny_for_tests() -> Self {
        SasConfig {
            segment_frames: 8,
            codec: CodecConfig::new(8, 12),
            analysis_src: (96, 48),
            analysis_fov: (32, 32),
            max_clusters: 2,
            // 4×2 over 96×48 → 24×24 tiles (the default 8×4 grid would
            // cut 12×12 tiles, which are not 8-aligned).
            tile_grid: TileGrid { cols: 4, rows: 2 },
            ..SasConfig::default()
        }
    }

    /// The FOV each pre-rendered stream covers (device FOV + margin).
    pub fn stream_fov(&self) -> FovSpec {
        self.device_fov.expanded(self.fov_margin)
    }

    /// Byte scale factor from analysis-resolution source encodings to
    /// target (paper-scale) source encodings.
    pub fn src_byte_scale(&self) -> f64 {
        pixel_ratio(self.target_src, self.analysis_src)
    }

    /// Byte scale factor from analysis-resolution FOV encodings to target
    /// FOV encodings.
    pub fn fov_byte_scale(&self) -> f64 {
        pixel_ratio(self.target_fov, self.analysis_fov)
    }

    /// The effective tiled low-quality quantiser: the configured value,
    /// or (when `0` = auto) twice the original's quantiser clamped to
    /// the codec's cap of 50.
    pub fn resolved_tiled_low_quantizer(&self) -> u8 {
        if self.tiled_low_quantizer == 0 {
            (self.codec.quantizer * 2).min(50)
        } else {
            self.tiled_low_quantizer
        }
    }

    /// The per-tile quantiser ladder for multi-rate tiled ingest,
    /// coarsest first (the ladder-machinery convention): the low layer,
    /// a midpoint, and the original's quantiser. Coinciding rungs
    /// deduplicate, so the ladder is always strictly descending.
    pub fn tiled_rung_quantizers(&self) -> Vec<u8> {
        let top = self.codec.quantizer;
        let low = self.resolved_tiled_low_quantizer().max(top);
        let mid = top + (low - top) / 2;
        let mut rungs = vec![low, mid, top];
        rungs.dedup();
        rungs
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_frames == 0 {
            return Err("segment_frames must be non-zero".into());
        }
        if !self.segment_frames.is_multiple_of(self.codec.gop_len)
            && !self.codec.gop_len.is_multiple_of(self.segment_frames)
        {
            return Err(format!(
                "segment length {} must align with GOP {}",
                self.segment_frames, self.codec.gop_len
            ));
        }
        if !(0.0..1.0).contains(&self.smoothing) {
            return Err("smoothing must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.object_utilization) {
            return Err("object_utilization must be in [0, 1]".into());
        }
        if self.max_clusters == 0 {
            return Err("max_clusters must be non-zero".into());
        }
        if self.tile_grid.is_empty() {
            return Err("tile_grid must have at least one tile".into());
        }
        let ((src_w, src_h), grid) = (self.analysis_src, self.tile_grid);
        if !src_w.is_multiple_of(grid.cols) || !src_h.is_multiple_of(grid.rows) {
            return Err(format!(
                "analysis frame {src_w}x{src_h} must divide into the {}x{} tile grid",
                grid.cols, grid.rows
            ));
        }
        let (tile_w, tile_h) = (src_w / grid.cols, src_h / grid.rows);
        if !tile_w.is_multiple_of(8) || !tile_h.is_multiple_of(8) {
            return Err(format!("tiles of {tile_w}x{tile_h} are not 8-aligned"));
        }
        if self.tiled_low_quantizer > 50 {
            return Err("tiled_low_quantizer must be at most 50".into());
        }
        Ok(())
    }
}

fn pixel_ratio(target: (u32, u32), analysis: (u32, u32)) -> f64 {
    (target.0 as f64 * target.1 as f64) / (analysis.0 as f64 * analysis.1 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SasConfig::default().validate(), Ok(()));
        assert_eq!(SasConfig::tiny_for_tests().validate(), Ok(()));
    }

    #[test]
    fn stream_fov_is_wider_than_device() {
        let c = SasConfig::default();
        assert!(c.stream_fov().horizontal.0 > c.device_fov.horizontal.0);
    }

    #[test]
    fn byte_scales_are_pixel_ratios() {
        let c = SasConfig::default();
        let expect = (3840.0 * 2160.0) / (320.0 * 160.0);
        assert!((c.src_byte_scale() - expect).abs() < 1e-9);
        assert!(c.fov_byte_scale() > 1.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SasConfig { smoothing: 1.5, ..SasConfig::default() };
        assert!(c.validate().is_err());
        // 45 frames is neither a multiple nor a divisor of a 20-frame GOP.
        let c = SasConfig {
            segment_frames: 45,
            codec: CodecConfig::new(20, 10),
            ..SasConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SasConfig { object_utilization: 1.2, ..SasConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_requires_8_aligned_tiles() {
        let tiles = |src: (u32, u32), cols: u32, rows: u32| SasConfig {
            analysis_src: src,
            tile_grid: TileGrid { cols, rows },
            ..SasConfig::default()
        };
        // 128×64 over the default 8×4 grid cuts 16×16 tiles.
        assert_eq!(tiles((128, 64), 8, 4).validate(), Ok(()));
        // 96×48 over 8×4 divides into 12×12 tiles, which pad the DCT.
        let err = tiles((96, 48), 8, 4).validate().unwrap_err();
        assert!(err.contains("8-aligned"), "{err}");
        // 100×48 does not divide into 8 columns at all.
        let err = tiles((100, 48), 8, 4).validate().unwrap_err();
        assert!(err.contains("must divide"), "{err}");
        // Such a config is refused at ingest, before the tiled ingest
        // could reach its assert.
        let scene = evr_video::library::scene_for(evr_video::library::VideoId::Rs);
        let cfg = SasConfig { tile_grid: TileGrid::default(), ..SasConfig::tiny_for_tests() };
        assert!(matches!(
            crate::ingest::ingest_video_with(&scene, &cfg, 0.5, &crate::IngestOptions::default()),
            Err(crate::ingest::IngestError::InvalidConfig(_))
        ));
    }
}
