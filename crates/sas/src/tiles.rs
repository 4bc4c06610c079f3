//! Tile-based view-guided streaming.
//!
//! The approaches the paper positions SAS against (§2, §9: Gaddam et al.,
//! Zare et al., Qian et al., ...) "divide a frame into tiles and use
//! non-uniform image resolutions across tiles according to users' sight".
//! They reduce *bandwidth*, but every frame still arrives as panoramic
//! content and "the power-hungry PT operation is still a necessary step
//! on the VR device".
//!
//! This module implements tiling for real, as the delivery mode behind
//! the `T`/`T+H` variants: [`TiledRateCatalog`] holds a quantiser ladder
//! per tile (MPEG-DASH-SRD style), [`TileGrid::classify_tiles`] splits
//! tiles into visible/peripheral/out-of-view, and
//! [`TileGrid::tile_weights`] provides the S-PSNR-style spherical
//! weights the client's per-tile rate allocator optimises against.

use serde::{Deserialize, Serialize};

use evr_math::{Degrees, EulerAngles, Radians};
use evr_projection::{FovSpec, ImageBuffer};
use evr_video::codec::{CodecConfig, EncodedSegment};
use evr_video::scene::Scene;

use crate::config::SasConfig;
use crate::ingest::{encode_segment, SegmentPlan};

/// Angular margin around the device FOV inside which tiles count as
/// *peripheral* for rate allocation: likely to enter view within a
/// segment of ordinary head motion, so worth some bits but not full
/// quality.
pub const PERIPHERY_MARGIN: Degrees = Degrees(30.0);

/// A tile's relation to the current viewport, for rate allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TileClass {
    /// Intersects the device FOV.
    Visible,
    /// Outside the FOV but within [`PERIPHERY_MARGIN`] of it.
    Peripheral,
    /// Neither visible nor peripheral.
    OutOfView,
}

/// The tile grid over an equirectangular frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGrid {
    /// Tile columns (longitude divisions).
    pub cols: u32,
    /// Tile rows (latitude divisions).
    pub rows: u32,
}

impl Default for TileGrid {
    /// The 8×4 grid common in the tiling literature (45°×45° tiles).
    fn default() -> Self {
        TileGrid { cols: 8, rows: 4 }
    }
}

impl TileGrid {
    /// Total tiles.
    pub fn len(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// Whether the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.cols == 0 || self.rows == 0
    }

    /// The angular extents of tile `(col, row)` as
    /// `(lon_lo, lon_hi, lat_lo, lat_hi)` in radians. Longitudes span
    /// `[-π, π]` left to right; latitudes descend with the row index
    /// (row 0 is the north/top band).
    pub fn tile_extents(&self, col: u32, row: u32) -> (f64, f64, f64, f64) {
        let lon_lo = (col as f64 / self.cols as f64 - 0.5) * std::f64::consts::TAU;
        let lon_hi = ((col as f64 + 1.0) / self.cols as f64 - 0.5) * std::f64::consts::TAU;
        let lat_hi = (0.5 - row as f64 / self.rows as f64) * std::f64::consts::PI;
        let lat_lo = (0.5 - (row as f64 + 1.0) / self.rows as f64) * std::f64::consts::PI;
        (lon_lo, lon_hi, lat_lo, lat_hi)
    }

    /// Which tiles a device with `fov` at `pose` can see, testing the
    /// tile's full angular extent rather than just its centre: sample
    /// latitudes (band edges, midpoint and the pose pitch clamped into
    /// the band) each check the nearest-point longitude distance to the
    /// tile's interval, scaled by that latitude's `cos` to account for
    /// ERP stretching. A pole-facing pose therefore sees the entire
    /// polar row, and a 1×1 grid is visible from every pose.
    pub fn visible_tiles(&self, pose: EulerAngles, fov: FovSpec) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len());
        for row in 0..self.rows {
            for col in 0..self.cols {
                out.push(self.tile_in_fov(col, row, pose, fov));
            }
        }
        out
    }

    fn tile_in_fov(&self, col: u32, row: u32, pose: EulerAngles, fov: FovSpec) -> bool {
        let half_h = fov.h_radians().0 / 2.0;
        let half_v = fov.v_radians().0 / 2.0;
        let (lon_lo, lon_hi, lat_lo, lat_hi) = self.tile_extents(col, row);
        // Nearest-point longitude distance to the tile's interval, with
        // wraparound at the ±π seam.
        let yaw = (pose.yaw.0 + std::f64::consts::PI).rem_euclid(std::f64::consts::TAU)
            - std::f64::consts::PI;
        let d_lon = if (lon_lo..=lon_hi).contains(&yaw) {
            0.0
        } else {
            let to_lo = Radians(yaw).angular_distance(Radians(lon_lo)).0;
            let to_hi = Radians(yaw).angular_distance(Radians(lon_hi)).0;
            to_lo.min(to_hi)
        };
        let lat_mid = (lat_lo + lat_hi) / 2.0;
        let lat_near = pose.pitch.0.clamp(lat_lo, lat_hi);
        [lat_lo, lat_mid, lat_hi, lat_near].iter().any(|&lat| {
            let d_pitch = pose.pitch.angular_distance(Radians(lat)).0;
            d_pitch <= half_v && d_lon * lat.cos().abs() <= half_h
        })
    }

    /// Classifies every tile for rate allocation: [`TileClass::Visible`]
    /// if it intersects `fov`, [`TileClass::Peripheral`] if it
    /// intersects `fov` expanded by `margin`, [`TileClass::OutOfView`]
    /// otherwise.
    pub fn classify_tiles(
        &self,
        pose: EulerAngles,
        fov: FovSpec,
        margin: Degrees,
    ) -> Vec<TileClass> {
        let wide = fov.expanded(margin);
        let mut out = Vec::with_capacity(self.len());
        for row in 0..self.rows {
            for col in 0..self.cols {
                let class = if self.tile_in_fov(col, row, pose, fov) {
                    TileClass::Visible
                } else if self.tile_in_fov(col, row, pose, wide) {
                    TileClass::Peripheral
                } else {
                    TileClass::OutOfView
                };
                out.push(class);
            }
        }
        out
    }

    /// The solid angle (steradians) each tile subtends on the sphere —
    /// the S-PSNR-style spherical weight for the rate allocator. A row
    /// at latitudes `[lat_lo, lat_hi]` covers `sin(lat_hi) - sin(lat_lo)`
    /// of the unit-sphere height per `2π/cols` of longitude, so polar
    /// tiles weigh far less than equatorial ones despite equal pixel
    /// counts. Sums to `4π` over any grid.
    pub fn tile_weights(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for row in 0..self.rows {
            let lat_hi = (0.5 - row as f64 / self.rows as f64) * std::f64::consts::PI;
            let lat_lo = (0.5 - (row as f64 + 1.0) / self.rows as f64) * std::f64::consts::PI;
            let w = (std::f64::consts::TAU / self.cols as f64) * (lat_hi.sin() - lat_lo.sin());
            for _ in 0..self.cols {
                out.push(w);
            }
        }
        out
    }
}

/// One tile at one quality rung for one segment. Byte sizes are at the
/// target scale of the ingesting [`SasConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileRung {
    /// Wire bytes for the whole segment at this rung.
    pub wire_bytes: u64,
    /// Wire bytes when this rung is delta-encoded against the finest
    /// same-resolution rung of the same tile ([`evr_video::delta`]).
    /// Equal to `wire_bytes` for the reference rung itself, for the
    /// full-resolution top rung (whose resolution differs from the
    /// downsampled lower rungs, so no shape-compatible reference
    /// exists), and wherever the delta fell back to full.
    pub delta_wire_bytes: u64,
    /// Per-frame wire bytes (header + scaled payload), mirroring the
    /// client's per-frame decode accounting.
    pub frame_bytes: Vec<u64>,
}

/// Per-tile multi-rate encodings for a whole video — the MPEG-DASH-SRD
/// style catalog behind the `T`/`T+H` variants. Every tile of every
/// segment carries a quantiser ladder (coarsest first); the client's
/// rate allocator picks a rung per tile per segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledRateCatalog {
    grid: TileGrid,
    /// Rung quantisers, coarsest (highest quantiser) first.
    quantizers: Vec<u8>,
    /// `segments[seg][tile][rung]`.
    segments: Vec<Vec<Vec<TileRung>>>,
}

impl TiledRateCatalog {
    /// The grid in use.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// Rung quantisers, coarsest first.
    pub fn quantizers(&self) -> &[u8] {
        &self.quantizers
    }

    /// Rungs per tile.
    pub fn rung_count(&self) -> usize {
        self.quantizers.len()
    }

    /// Number of segments.
    pub fn segment_count(&self) -> u32 {
        self.segments.len() as u32
    }

    /// One tile's encoding at one rung.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn rung(&self, seg: u32, tile: usize, rung: usize) -> &TileRung {
        &self.segments[seg as usize][tile][rung]
    }

    /// The `[tile][rung]` wire-byte matrix for one segment — the rate
    /// allocator's input.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn tile_rung_bytes(&self, seg: u32) -> Vec<Vec<u64>> {
        self.segments[seg as usize]
            .iter()
            .map(|tile| tile.iter().map(|r| r.wire_bytes).collect())
            .collect()
    }
}

/// Ingests `duration_s` seconds of `scene` for multi-rate tiled
/// delivery with `workers` segment workers (`0` = one per core; clamped
/// to `1..=64` like every fan-out): per segment, every tile of
/// `config.tile_grid` is independently encoded at each rung of
/// [`SasConfig::tiled_rung_quantizers`]. The top rung is the
/// full-resolution crop at the production quantiser; every lower rung is
/// additionally 2× spatially downsampled (quarter the pixel data), so
/// DASH-SRD-style
/// rungs trade resolution *and* quantisation — per-tile quantiser steps
/// alone cannot beat the coder's per-tile entropy floor.
///
/// Byte sizes are reported at the target scale of `config`. With a 1×1
/// grid the top rung's encoding is byte-identical to the untiled
/// original segments (same codec settings, same intra-forced encoder),
/// which is what pins the `T`-variant baseline parity.
///
/// # Panics
///
/// Panics with the [`IngestError`](crate::IngestError) message wherever
/// [`ingest_video_with`](crate::ingest_video_with) would return that
/// error: a configuration failing [`SasConfig::validate`] (which
/// includes a grid that does not cut the analysis frame into 8-aligned
/// tiles) or a duration covering no complete frame.
pub fn ingest_tiled_rates_with(
    scene: &Scene,
    config: &SasConfig,
    duration_s: f64,
    workers: usize,
) -> TiledRateCatalog {
    let plan = SegmentPlan::new(scene, config, duration_s).unwrap_or_else(|e| panic!("{e}"));
    let grid = config.tile_grid;
    let quantizers = config.tiled_rung_quantizers();
    let tile_w = config.analysis_src.0 / grid.cols;
    let tile_h = config.analysis_src.1 / grid.rows;
    let scale = config.src_byte_scale();

    let segments = evr_sched::run_chunked(plan.segment_count(), workers, 0, |seg| {
        let segment = plan.segment(seg);
        let mut tiles = Vec::with_capacity(grid.len());
        for row in 0..grid.rows {
            for col in 0..grid.cols {
                let (x0, y0) = (col * tile_w, row * tile_h);
                let crops: Vec<ImageBuffer> = segment
                    .sources
                    .iter()
                    .map(|img| ImageBuffer::from_fn(tile_w, tile_h, |x, y| img.get(x0 + x, y0 + y)))
                    .collect();
                let halved: Vec<ImageBuffer> =
                    crops.iter().map(evr_projection::pixel::downsample2x).collect();
                let encoded_rungs: Vec<(EncodedSegment, f64)> = quantizers
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| {
                        let top = i + 1 == quantizers.len();
                        let (imgs, rung_scale) =
                            if top { (&crops, scale) } else { (&halved, scale / 4.0) };
                        let codec = CodecConfig::new(config.segment_frames, q);
                        (encode_segment(codec, segment.start, imgs), rung_scale)
                    })
                    .collect();
                // Delta reference: the finest *downsampled* rung — the top
                // rung is full resolution, so it cannot reference anything
                // and nothing can reference it across the resolution
                // break. With fewer than three rungs everything stays full.
                let reference = (quantizers.len() >= 3).then(|| quantizers.len() - 2);
                let rungs: Vec<TileRung> = encoded_rungs
                    .iter()
                    .enumerate()
                    .map(|(i, (encoded, rung_scale))| {
                        let frame_bytes = encoded
                            .frames
                            .iter()
                            .map(|f| {
                                let payload = f.payload_bytes();
                                (payload as f64 * rung_scale) as u64 + (f.bytes - payload)
                            })
                            .collect();
                        let wire_bytes = encoded.scaled_bytes(*rung_scale);
                        // Fallback compares at the accounting scale:
                        // headers do not scale, so the winner can differ
                        // from the analysis-scale one.
                        let delta_wire_bytes = match reference {
                            Some(r) if i < r => {
                                evr_video::delta::DeltaSegment::encode(encoded, &encoded_rungs[r].0)
                                    .map_or(wire_bytes, |d| {
                                        d.scaled_bytes(*rung_scale).min(wire_bytes)
                                    })
                            }
                            _ => wire_bytes,
                        };
                        TileRung { wire_bytes, delta_wire_bytes, frame_bytes }
                    })
                    .collect();
                tiles.push(rungs);
            }
        }
        tiles
    });
    TiledRateCatalog { grid, quantizers, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_video::library::{scene_for, VideoId};

    /// The Rhino catalog on an 8×4 grid of 16×16 tiles.
    fn catalog() -> TiledRateCatalog {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.analysis_src = (128, 64);
        cfg.tile_grid = TileGrid::default();
        ingest_tiled_rates_with(&scene_for(VideoId::Rhino), &cfg, 1.0, 0)
    }

    /// Wire bytes of segment `seg` for a viewer at `pose`: visible tiles
    /// at the top rung, the rest at the coarsest.
    fn view_guided_bytes(cat: &TiledRateCatalog, seg: u32, pose: EulerAngles) -> u64 {
        let top = cat.rung_count() - 1;
        let visible = cat.grid().visible_tiles(pose, FovSpec::hdk2());
        let rung = |t: usize| if visible[t] { top } else { 0 };
        (0..visible.len()).map(|t| cat.rung(seg, t, rung(t)).wire_bytes).sum()
    }

    #[test]
    fn grid_geometry() {
        let g = TileGrid::default();
        assert_eq!(g.len(), 32);
        // Tile (4, 2) of an 8×4 grid spans the 45° right of the frame
        // centre and the 45° band just below the equator.
        let (lon_lo, lon_hi, lat_lo, lat_hi) = g.tile_extents(4, 2);
        let quarter = std::f64::consts::FRAC_PI_4;
        assert!(lon_lo.abs() < 1e-12 && (lon_hi - quarter).abs() < 1e-12);
        assert!(lat_hi.abs() < 1e-12 && (lat_lo + quarter).abs() < 1e-12);
    }

    #[test]
    fn forward_gaze_excludes_rear_tiles() {
        // With a 110°×110° FOV plus conservative slack, deployed tilers
        // fetch well over half the panorama at high quality — but never
        // the tiles directly behind the viewer.
        let g = TileGrid::default();
        let visible = g.visible_tiles(EulerAngles::default(), FovSpec::hdk2());
        let n = visible.iter().filter(|v| **v).count();
        assert!(n >= 4, "{n} tiles visible");
        assert!(n < g.len(), "{n} of {} tiles visible", g.len());
        // The mid-latitude tile behind the viewer (col 0, row 1: lon
        // ≈ -157°) must be out of view.
        let behind = g.visible_tiles(EulerAngles::default(), FovSpec::hdk2())[8];
        assert!(!behind, "rear tile fetched at high quality");
    }

    #[test]
    fn view_guided_bytes_below_all_high() {
        let cat = catalog();
        let top = cat.rung_count() - 1;
        for seg in 0..cat.segment_count() {
            let guided = view_guided_bytes(&cat, seg, EulerAngles::default());
            let all: u64 = cat.tile_rung_bytes(seg).iter().map(|r| r[top]).sum();
            assert!(guided < all, "segment {seg}: {guided} vs {all}");
        }
    }

    #[test]
    fn looking_elsewhere_changes_the_selection() {
        let cat = catalog();
        let a = view_guided_bytes(&cat, 0, EulerAngles::default());
        let b = view_guided_bytes(&cat, 0, EulerAngles::from_degrees(180.0, 0.0, 0.0));
        // Different views select different tile sets; sizes differ unless
        // the content is perfectly symmetric.
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn misaligned_grid_panics() {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.analysis_src = (100, 48);
        cfg.tile_grid = TileGrid::default();
        let _ = ingest_tiled_rates_with(&scene_for(VideoId::Rs), &cfg, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "8-aligned")]
    fn unaligned_tiles_panic() {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.analysis_src = (96, 48); // 12×12 tiles: divides, but pads the DCT
        cfg.tile_grid = TileGrid::default();
        let _ = ingest_tiled_rates_with(&scene_for(VideoId::Rs), &cfg, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "segment_frames must be non-zero")]
    fn zero_segment_frames_panic_with_the_config_error() {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.segment_frames = 0;
        let _ = ingest_tiled_rates_with(&scene_for(VideoId::Rs), &cfg, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "smoothing must be in [0, 1)")]
    fn every_config_check_applies() {
        let mut cfg = SasConfig::tiny_for_tests();
        cfg.smoothing = 2.0;
        let _ = ingest_tiled_rates_with(&scene_for(VideoId::Rs), &cfg, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "duration covers no frames")]
    fn zero_frame_duration_panics() {
        let _ = ingest_tiled_rates_with(
            &scene_for(VideoId::Rs),
            &SasConfig::tiny_for_tests(),
            0.001,
            1,
        );
    }

    #[test]
    fn pole_facing_pose_sees_full_polar_row() {
        // Looking straight up, every tile of the polar row contains the
        // gaze point (they all meet at the pole), even though their
        // *centres* sit at 67.5° latitude, far from the gaze in raw yaw
        // distance — a centre-based test would miss most of them.
        let g = TileGrid::default();
        let up = EulerAngles::from_degrees(0.0, 90.0, 0.0);
        let visible = g.visible_tiles(up, FovSpec::hdk2());
        for col in 0..g.cols {
            assert!(visible[col as usize], "polar tile {col} invisible when looking at the pole");
        }
    }

    #[test]
    fn extent_test_still_excludes_rear_tiles() {
        let g = TileGrid::default();
        let visible = g.visible_tiles(EulerAngles::default(), FovSpec::hdk2());
        let n = visible.iter().filter(|v| **v).count();
        assert!(n >= 4, "{n} tiles visible");
        assert!(n < g.len(), "{n} of {} tiles visible", g.len());
        assert!(!visible[8], "rear mid-latitude tile visible under forward gaze");
    }

    #[test]
    fn single_tile_grid_is_always_visible() {
        let g = TileGrid { cols: 1, rows: 1 };
        for (yaw, pitch) in [(0.0, 0.0), (90.0, 0.0), (180.0, -45.0), (-135.0, 88.0)] {
            let pose = EulerAngles::from_degrees(yaw, pitch, 0.0);
            assert_eq!(g.visible_tiles(pose, FovSpec::hdk2()), vec![true], "pose {yaw}/{pitch}");
        }
    }

    #[test]
    fn tile_weights_sum_to_sphere() {
        for (cols, rows) in [(1, 1), (8, 4), (4, 2), (6, 5), (16, 8), (3, 7)] {
            let g = TileGrid { cols, rows };
            let total: f64 = g.tile_weights().iter().sum();
            let sphere = 4.0 * std::f64::consts::PI;
            assert!(
                (total - sphere).abs() < 1e-9,
                "{cols}x{rows}: weights sum {total} != {sphere}"
            );
            assert!(g.tile_weights().iter().all(|w| *w > 0.0));
        }
    }

    #[test]
    fn classification_nests_visible_inside_peripheral() {
        let g = TileGrid::default();
        let pose = EulerAngles::from_degrees(30.0, 10.0, 0.0);
        let classes = g.classify_tiles(pose, FovSpec::hdk2(), PERIPHERY_MARGIN);
        let visible = g.visible_tiles(pose, FovSpec::hdk2());
        for (c, v) in classes.iter().zip(&visible) {
            assert_eq!(*c == TileClass::Visible, *v);
        }
        assert!(classes.contains(&TileClass::OutOfView));
    }

    #[test]
    fn multirate_catalog_shape_and_rung_ordering() {
        let cat = catalog();
        assert_eq!(cat.grid(), TileGrid::default());
        assert_eq!(cat.rung_count(), SasConfig::tiny_for_tests().tiled_rung_quantizers().len());
        assert!(cat.segment_count() > 0);
        for seg in 0..cat.segment_count() {
            let matrix = cat.tile_rung_bytes(seg);
            for (tile, rungs) in matrix.iter().enumerate() {
                assert!(rungs.iter().all(|w| *w > 0), "seg {seg} tile {tile}: empty rung");
                let r = cat.rung(seg, tile, 0);
                assert_eq!(r.wire_bytes, rungs[0]);
                assert!(!r.frame_bytes.is_empty());
            }
            // Per-tile sizes need not be monotone in the quantiser (the
            // coder's entropy model occasionally inverts neighbouring
            // rungs on small tiles), but in aggregate the finest rung
            // must outweigh the coarsest.
            let coarse: u64 = matrix.iter().map(|r| r[0]).sum();
            let fine: u64 = matrix.iter().map(|r| r[cat.rung_count() - 1]).sum();
            assert!(fine > coarse, "seg {seg}: fine {fine} <= coarse {coarse}");
        }
    }

    #[test]
    fn multirate_delta_bytes_bounded_and_reference_rungs_stay_full() {
        let cat = catalog();
        let rungs = cat.rung_count();
        assert!(rungs >= 3, "tiny config should produce a 3-rung ladder");
        let mut any_delta_win = false;
        for seg in 0..cat.segment_count() {
            for (tile, f) in cat.tile_rung_bytes(seg).iter().enumerate() {
                let d = |r: usize| cat.rung(seg, tile, r).delta_wire_bytes;
                for (r, &full) in f.iter().enumerate() {
                    assert!(
                        d(r) <= full,
                        "seg {seg} tile {tile} rung {r}: delta {} > full {full}",
                        d(r)
                    );
                }
                // The reference (finest downsampled) rung and the
                // full-resolution top rung can never be deltas.
                assert_eq!(d(rungs - 2), f[rungs - 2]);
                assert_eq!(d(rungs - 1), f[rungs - 1]);
                any_delta_win |= (0..rungs - 2).any(|r| d(r) < f[r]);
            }
        }
        assert!(any_delta_win, "no tile rung ever delta-won");
    }

    #[test]
    fn multirate_ingest_is_worker_independent() {
        let cfg = SasConfig::tiny_for_tests();
        let scene = scene_for(VideoId::Rhino);
        let serial = ingest_tiled_rates_with(&scene, &cfg, 1.0, 1);
        for workers in [2, 8] {
            assert_eq!(serial, ingest_tiled_rates_with(&scene, &cfg, 1.0, workers));
        }
    }
}
