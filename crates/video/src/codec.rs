//! A GOP-structured block-transform codec model.
//!
//! The paper streams VR content as ordinary planar video precisely because
//! mature planar codecs compress so well (§2), and several EVR results
//! hinge on codec behaviour: FOV-video storage overhead (Fig. 14),
//! bandwidth savings (Fig. 13) and the re-streaming penalty of an FOV miss
//! (§5.4, "video compression rate is much higher than image compression
//! rate"). Rather than assuming an external H.264 library, this module
//! implements a real — if simplified — transform codec:
//!
//! * 4:2:0 YCbCr input ([`crate::yuv`]);
//! * 8×8 orthonormal DCT-II per block;
//! * flat-plus-frequency-weighted quantisation controlled by a quantiser
//!   parameter;
//! * **I (intra)** frames coded standalone; **P (predicted)** frames code
//!   the residual against the previous *reconstructed* frame (drift-free,
//!   like a real encoder);
//! * a global-motion-compensated prediction loop (exhaustive-search
//!   translational MC — the pan-heavy FOV videos depend on it);
//! * an entropy-cost model (bit-length coding of non-zero coefficients +
//!   zero-block skip flags) that turns coefficients into byte sizes.
//!
//!
//! # Example
//!
//! ```
//! use evr_video::codec::{CodecConfig, Encoder, Decoder};
//! use evr_projection::{ImageBuffer, Rgb};
//!
//! let cfg = CodecConfig::default();
//! let mut enc = Encoder::new(cfg);
//! let img = ImageBuffer::from_fn(32, 32, |x, y| Rgb::new((x * 8) as u8, (y * 8) as u8, 0));
//! let f0 = enc.encode_frame(&img);
//! let f1 = enc.encode_frame(&img); // identical frame → tiny P frame
//! assert!(f1.bytes < f0.bytes);
//!
//! let mut dec = Decoder::new();
//! let out = dec.decode_frame(&f0);
//! assert!(img.mean_abs_error(&out) < 0.05);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

use evr_math::round::{round_to_i16, round_to_u8};
use evr_projection::ImageBuffer;

use crate::frame::VideoMeta;
use crate::yuv::{rgb_to_yuv420, yuv420_to_rgb, Plane, Yuv420};

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodecConfig {
    /// Group-of-pictures length: one intra frame every `gop_len` frames.
    /// The paper aligns SAS's 30-frame segments to this (§5.3).
    pub gop_len: u32,
    /// Quantiser (1 = near-lossless … 50 = very coarse). Controls the
    /// quantisation step and therefore the rate/quality trade-off.
    pub quantizer: u8,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig { gop_len: 30, quantizer: 12 }
    }
}

impl CodecConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `gop_len == 0` or `quantizer` is outside `1..=50`.
    pub fn new(gop_len: u32, quantizer: u8) -> Self {
        assert!(gop_len > 0, "gop_len must be non-zero");
        assert!((1..=50).contains(&quantizer), "quantizer must be in 1..=50");
        CodecConfig { gop_len, quantizer }
    }
}

/// Frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-coded: standalone, larger.
    Intra,
    /// Predicted: motion-compensated residual against the previous frame.
    Predicted,
}

/// Quantised coefficients of one plane, stored sparsely: most
/// coefficients quantise to zero (that is the whole point of transform
/// coding), so entries hold only `(global index, value)` pairs in
/// ascending index order, where `global index = block · 64 + position`
/// for blocks in raster order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedPlane {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) entries: Vec<(u32, i16)>,
}

impl QuantizedPlane {
    fn blocks_x(&self) -> u32 {
        self.width.div_ceil(8)
    }
    fn blocks_y(&self) -> u32 {
        self.height.div_ceil(8)
    }

    /// Number of non-zero coefficients (a decode-cost proxy).
    pub fn nonzero_coeffs(&self) -> u64 {
        self.entries.len() as u64
    }
}

/// One encoded frame: coefficients plus its modelled wire size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// Coding type.
    pub kind: FrameKind,
    /// Modelled compressed size in bytes.
    pub bytes: u64,
    /// Quantiser the frame was coded with.
    pub quantizer: u8,
    /// Global motion vector (luma pixels, pointing into the reference):
    /// pre-rendered FOV videos pan with their cluster, and a global-pan
    /// predictor is what keeps such content compressible in real codecs.
    pub motion: (i16, i16),
    pub(crate) y: QuantizedPlane,
    pub(crate) cb: QuantizedPlane,
    pub(crate) cr: QuantizedPlane,
}

impl EncodedFrame {
    /// Wire bytes excluding the fixed per-frame header — the part that
    /// scales with resolution in the analysis-scale model.
    pub fn payload_bytes(&self) -> u64 {
        self.bytes - FRAME_HEADER_BYTES
    }

    /// Total non-zero coefficients across planes (decode-cost proxy).
    pub fn nonzero_coeffs(&self) -> u64 {
        self.y.nonzero_coeffs() + self.cb.nonzero_coeffs() + self.cr.nonzero_coeffs()
    }

    /// Luma dimensions of the coded frame.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.y.width, self.y.height)
    }
}

/// A GOP-aligned run of encoded frames — SAS's unit of streaming and
/// re-streaming (§5.3, "we statically set the segment length to 30 frames,
/// which roughly match the GOP size").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedSegment {
    /// Index of the first frame in the stream.
    pub start_index: u64,
    /// The frames, first one intra.
    pub frames: Vec<EncodedFrame>,
}

impl EncodedSegment {
    /// Total wire bytes of the segment.
    pub fn bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Wire bytes at a different resolution scale: payload scales with
    /// the pixel ratio, per-frame headers do not.
    pub fn scaled_bytes(&self, pixel_ratio: f64) -> u64 {
        let headers = self.frames.len() as u64 * FRAME_HEADER_BYTES;
        let payload: u64 = self.frames.iter().map(EncodedFrame::payload_bytes).sum();
        headers + (payload as f64 * pixel_ratio) as u64
    }
}

/// A fully encoded video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedVideo {
    /// Stream metadata.
    pub meta: VideoMeta,
    /// Configuration used.
    pub config: CodecConfig,
    /// GOP-aligned segments.
    pub segments: Vec<EncodedSegment>,
}

impl EncodedVideo {
    /// Total wire bytes.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes()).sum()
    }

    /// Total frame count.
    pub fn frame_count(&self) -> u64 {
        self.segments.iter().map(|s| s.frames.len() as u64).sum()
    }

    /// Mean bitrate in bits per second.
    pub fn bitrate_bps(&self) -> f64 {
        let secs = self.frame_count() as f64 / self.meta.fps;
        self.bytes() as f64 * 8.0 / secs
    }
}

impl fmt::Display for EncodedVideo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames, {} segments, {:.2} Mbps",
            self.frame_count(),
            self.segments.len(),
            self.bitrate_bps() / 1e6
        )
    }
}

/// Streaming encoder with reconstruction state.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: CodecConfig,
    frames_since_intra: u32,
    reference: Option<Yuv420>,
}

impl Encoder {
    /// Creates an encoder; the first frame will be intra-coded.
    pub fn new(config: CodecConfig) -> Self {
        Encoder { config, frames_since_intra: 0, reference: None }
    }

    /// The configuration in use.
    pub fn config(&self) -> CodecConfig {
        self.config
    }

    /// Forces the next frame to be intra-coded (used at segment starts).
    pub fn force_intra(&mut self) {
        self.frames_since_intra = 0;
        self.reference = None;
    }

    /// Encodes one frame, updating the reconstruction reference.
    ///
    /// A frame whose dimensions differ from the reference's is coded
    /// intra: motion compensation only means something between frames
    /// of one raster. The GOP cadence is unchanged.
    pub fn encode_frame(&mut self, image: &ImageBuffer) -> EncodedFrame {
        let yuv = rgb_to_yuv420(image);
        let same_size = |r: &Yuv420| (r.y.width(), r.y.height()) == (yuv.y.width(), yuv.y.height());
        let reference = self.reference.take().filter(same_size);
        let kind = if self.frames_since_intra == 0 || reference.is_none() {
            FrameKind::Intra
        } else {
            FrameKind::Predicted
        };
        let q = self.config.quantizer;
        let motion = match (kind, &reference) {
            (FrameKind::Predicted, Some(r)) => estimate_global_motion(&yuv.y, &r.y, 8),
            _ => (0, 0),
        };
        let mv = (motion.0 as i64, motion.1 as i64);
        let mv_chroma = (mv.0 / 2, mv.1 / 2);
        let (ry, qy, by) = code_plane(&yuv.y, reference.as_ref().map(|r| &r.y), kind, q, true, mv);
        let (rcb, qcb, bcb) =
            code_plane(&yuv.cb, reference.as_ref().map(|r| &r.cb), kind, q, false, mv_chroma);
        let (rcr, qcr, bcr) =
            code_plane(&yuv.cr, reference.as_ref().map(|r| &r.cr), kind, q, false, mv_chroma);
        self.reference = Some(Yuv420 { y: ry, cb: rcb, cr: rcr });
        self.frames_since_intra = (self.frames_since_intra + 1) % self.config.gop_len;
        EncodedFrame {
            kind,
            bytes: FRAME_HEADER_BYTES + (by + bcb + bcr + 24).div_ceil(8),
            quantizer: q,
            motion,
            y: qy,
            cb: qcb,
            cr: qcr,
        }
    }

    /// Encodes a whole sequence of images into GOP-aligned segments.
    pub fn encode_video(
        meta: VideoMeta,
        config: CodecConfig,
        images: impl IntoIterator<Item = ImageBuffer>,
    ) -> EncodedVideo {
        let mut enc = Encoder::new(config);
        let mut segments: Vec<EncodedSegment> = Vec::new();
        for (i, image) in images.into_iter().enumerate() {
            let i = i as u64;
            if i.is_multiple_of(config.gop_len as u64) {
                enc.force_intra();
                segments.push(EncodedSegment { start_index: i, frames: Vec::new() });
            }
            let frame = enc.encode_frame(&image);
            segments.last_mut().expect("segment exists").frames.push(frame);
        }
        EncodedVideo { meta, config, segments }
    }
}

/// Streaming decoder with reconstruction state.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    reference: Option<Yuv420>,
}

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Decoder { reference: None }
    }

    /// Decodes one frame.
    ///
    /// # Panics
    ///
    /// Panics if a predicted frame arrives with no reference (stream must
    /// start at an intra frame).
    pub fn decode_frame(&mut self, frame: &EncodedFrame) -> ImageBuffer {
        let reference = self.reference.take();
        if frame.kind == FrameKind::Predicted {
            assert!(reference.is_some(), "predicted frame without reference");
        }
        let mv = (frame.motion.0 as i64, frame.motion.1 as i64);
        let mv_chroma = (mv.0 / 2, mv.1 / 2);
        let y = decode_plane(
            &frame.y,
            reference.as_ref().map(|r| &r.y),
            frame.kind,
            frame.quantizer,
            true,
            mv,
        );
        let cb = decode_plane(
            &frame.cb,
            reference.as_ref().map(|r| &r.cb),
            frame.kind,
            frame.quantizer,
            false,
            mv_chroma,
        );
        let cr = decode_plane(
            &frame.cr,
            reference.as_ref().map(|r| &r.cr),
            frame.kind,
            frame.quantizer,
            false,
            mv_chroma,
        );
        let yuv = Yuv420 { y, cb, cr };
        let out = yuv420_to_rgb(&yuv);
        self.reference = Some(yuv);
        out
    }
}

pub(crate) const FRAME_HEADER_BYTES: u64 = 96;

/// Quantisation step for coefficient `(u, v)`: a base step scaled up with
/// frequency, so high-frequency detail quantises coarser (perceptual
/// weighting, as in JPEG/H.264 default matrices). Chroma uses a slightly
/// coarser base.
pub(crate) fn quant_step(q: u8, u: usize, v: usize, is_luma: bool) -> f64 {
    let base = q as f64 * if is_luma { 1.0 } else { 1.4 };
    base * (1.0 + 0.45 * (u + v) as f64)
}

/// Estimates the global motion vector between `cur` and `reference` by
/// exhaustive search over `±range` luma pixels, minimising the sum of
/// absolute differences on a 2×-subsampled grid plus a bias towards
/// zero motion; the first minimum in raster order (`dy`, then `dx`)
/// wins. Returns the vector pointing into the reference
/// (`pred(x, y) = ref(x + mvx, y + mvy)`).
///
/// Every sampled position lies in `[range, w − range) × [range, h −
/// range)`, so every candidate offset stays inside the equal-sized
/// reference and no sample needs clamping. The sampled current samples
/// and each parity's reference columns are packed once, which turns a
/// candidate's row into one contiguous `u8` run. A candidate is dropped
/// once its partial SAD plus penalty reaches `min(running best,
/// zero-vector cost + 1)`: it can no longer win the strict-less raster
/// comparison, and the final winner never costs more than the zero
/// vector. The result equals the exhaustive search's (DESIGN.md §7).
fn estimate_global_motion(cur: &Plane, reference: &Plane, range: i64) -> (i16, i16) {
    assert_eq!(
        (cur.width(), cur.height()),
        (reference.width(), reference.height()),
        "motion search needs equal-sized planes"
    );
    let (w, h) = (cur.width() as usize, cur.height() as usize);
    let r = range as usize;
    if w <= 2 * r || h <= 2 * r {
        // No sampled position: every SAD is 0 and the penalty keeps
        // the zero vector.
        return (0, 0);
    }
    let cols = (w - 2 * r).div_ceil(2);
    let rows = (h - 2 * r).div_ceil(2);
    let cur_rows: Vec<u8> = (0..rows)
        .flat_map(|k| cur.samples()[(r + 2 * k) * w..][r..w - r].iter().step_by(2))
        .copied()
        .collect();
    // `packed[p][y * half + j]` holds reference sample `(p + 2j, y)`.
    let half = w.div_ceil(2);
    let mut packed = [vec![0u8; h * half], vec![0u8; h * half]];
    for (y, row) in reference.samples().chunks_exact(w).enumerate() {
        for (x, &s) in row.iter().enumerate() {
            packed[x & 1][y * half + x / 2] = s;
        }
    }
    // Cost (SAD + penalty) of candidate `(dx, dy)`, or `None` once it
    // reaches `limit`.
    let cost = |dx: i64, dy: i64, limit: u64| -> Option<u64> {
        // Bias towards zero motion (ties and noise should not pan).
        let mut total = (dx.unsigned_abs() + dy.unsigned_abs()) * 8;
        if total >= limit {
            return None;
        }
        let x0 = (r as i64 + dx) as usize;
        let plane = &packed[x0 & 1];
        for (k, c) in cur_rows.chunks_exact(cols).enumerate() {
            let start = (r as i64 + 2 * k as i64 + dy) as usize * half + x0 / 2;
            let row: u32 = c
                .iter()
                .zip(&plane[start..start + cols])
                .map(|(&a, &b)| u32::from(a.abs_diff(b)))
                .sum();
            total += u64::from(row);
            if total >= limit {
                return None;
            }
        }
        Some(total)
    };
    let zero_cost = cost(0, 0, u64::MAX).expect("an unbounded search never prunes");
    let mut best = (0i16, 0i16);
    let mut best_cost = u64::MAX;
    for dy in -range..=range {
        for dx in -range..=range {
            if let Some(c) = cost(dx, dy, best_cost.min(zero_cost + 1)) {
                best_cost = c;
                best = (dx as i16, dy as i16);
            }
        }
    }
    best
}

/// The 64 quantisation steps of one plane, row-major in `(v, u)`:
/// `steps[v * 8 + u] = quant_step(q, u, v, is_luma)`, computed once per
/// plane instead of once per coefficient.
fn step_table(q: u8, is_luma: bool) -> [f64; 64] {
    std::array::from_fn(|idx| quant_step(q, idx % 8, idx / 8, is_luma))
}

/// Reads the 8×8 block of `plane` whose top-left sample is `(x, y)`,
/// edge-extended like [`Plane::sample_clamped`]. A block inside the plane
/// is copied as eight row slices; one that crosses an edge is gathered
/// sample by sample through the clamp.
fn gather_block(plane: &Plane, x: i64, y: i64, out: &mut [u8; 64]) {
    let (w, h) = (i64::from(plane.width()), i64::from(plane.height()));
    if x >= 0 && y >= 0 && x + 8 <= w && y + 8 <= h {
        let (x, y, w) = (x as usize, y as usize, w as usize);
        for (jy, row) in out.chunks_exact_mut(8).enumerate() {
            row.copy_from_slice(&plane.samples()[(y + jy) * w + x..][..8]);
        }
    } else {
        for (k, s) in out.iter_mut().enumerate() {
            *s = plane.sample_clamped(x + (k % 8) as i64, y + (k / 8) as i64);
        }
    }
}

/// Codes one plane; returns (reconstruction, coefficients, bits).
///
/// Bit-identical to coding every sample through `sample_clamped`,
/// `quant_step` and `f64::round` (DESIGN.md §7): the steps come from
/// [`step_table`], the blocks from [`gather_block`], and both roundings
/// from [`evr_math::round`]. The prediction block is gathered once and
/// serves both the residual and the reconstruction. All 64 coefficients
/// are divided by their steps in one loop, which the compiler packs,
/// before any is rounded. A block whose levels are all zero (every
/// `|f / step| < ½`) is not rounded level by level and reconstructs as
/// its prediction: every dequantised coefficient would be +0.0, the
/// inverse transform of zeros is ±0.0, and `p ± 0.0` rounds back to `p`.
fn code_plane(
    plane: &Plane,
    reference: Option<&Plane>,
    kind: FrameKind,
    q: u8,
    is_luma: bool,
    mv: (i64, i64),
) -> (Plane, QuantizedPlane, u64) {
    let (w, h) = (plane.width(), plane.height());
    let bx = w.div_ceil(8);
    let by = h.div_ceil(8);
    let steps = step_table(q, is_luma);
    let reference = reference.filter(|_| kind == FrameKind::Predicted);
    let mut entries: Vec<(u32, i16)> = Vec::new();
    let mut recon = vec![0u8; w as usize * h as usize];
    let mut bits = 0u64;

    let mut cur = [0u8; 64];
    // Intra blocks (and predicted ones without a reference) predict 128.
    let mut pred = [128u8; 64];
    let mut block = [0f64; 64];
    let mut freq = [0f64; 64];
    let mut scaled = [0f64; 64];
    for byi in 0..by {
        for bxi in 0..bx {
            let (x0, y0) = (bxi * 8, byi * 8);
            gather_block(plane, i64::from(x0), i64::from(y0), &mut cur);
            if let Some(r) = reference {
                gather_block(r, i64::from(x0) + mv.0, i64::from(y0) + mv.1, &mut pred);
            }
            for ((b, &c), &p) in block.iter_mut().zip(&cur).zip(&pred) {
                *b = f64::from(c) - f64::from(p);
            }
            fdct8x8(&block, &mut freq);
            for ((s, &f), &step) in scaled.iter_mut().zip(&freq).zip(&steps) {
                *s = f / step;
            }
            // A coefficient rounds to zero exactly when |f / step| < ½
            // (half away from zero), so this is "some level is non-zero".
            let coded = scaled.iter().any(|s| s.abs() >= 0.5);
            bits += 1; // skip/coded flag
            if coded {
                // Quantise, cost, dequantise.
                bits += 6; // block addressing / CBP overhead
                let base = (byi * bx + bxi) * 64;
                for (idx, ((f, &s), &step)) in freq.iter_mut().zip(&scaled).zip(&steps).enumerate()
                {
                    let qc = round_to_i16(s);
                    *f = f64::from(qc) * step;
                    if qc != 0 {
                        entries.push((base + idx as u32, qc));
                        bits += coeff_bits(qc);
                    }
                }
            }
            // Reconstruct the part of the block inside the plane.
            let (x0, y0) = (x0 as usize, y0 as usize);
            let cols = 8.min(w as usize - x0);
            let rows = recon[y0 * w as usize + x0..].chunks_mut(w as usize);
            if coded {
                idct8x8(&freq, &mut block);
                for ((row, b), p) in rows.zip(block.chunks_exact(8)).zip(pred.chunks_exact(8)) {
                    for ((out, &b), &p) in row[..cols].iter_mut().zip(b).zip(p) {
                        *out = round_to_u8(b + f64::from(p));
                    }
                }
            } else {
                for (row, p) in rows.zip(pred.chunks_exact(8)) {
                    row[..cols].copy_from_slice(&p[..cols]);
                }
            }
        }
    }
    (Plane::from_samples(w, h, recon), QuantizedPlane { width: w, height: h, entries }, bits)
}

fn decode_plane(
    qp: &QuantizedPlane,
    reference: Option<&Plane>,
    kind: FrameKind,
    q: u8,
    is_luma: bool,
    mv: (i64, i64),
) -> Plane {
    let w = qp.width;
    let h = qp.height;
    let bx = qp.blocks_x();
    let steps = step_table(q, is_luma);
    let mut out = Plane::filled(w, h, 0);
    let mut freq = [0f64; 64];
    let mut block = [0f64; 64];
    // Entries are ascending by global index and blocks are visited in the
    // same order, so a single cursor drains the sparse stream.
    let mut cursor = 0usize;
    for byi in 0..qp.blocks_y() {
        for bxi in 0..bx {
            let base = (byi * bx + bxi) * 64;
            freq.fill(0.0);
            while cursor < qp.entries.len() && qp.entries[cursor].0 < base + 64 {
                let (gidx, qc) = qp.entries[cursor];
                let idx = (gidx - base) as usize;
                freq[idx] = qc as f64 * steps[idx];
                cursor += 1;
            }
            idct8x8(&freq, &mut block);
            for jy in 0..8 {
                for jx in 0..8 {
                    let px = bxi * 8 + jx;
                    let py = byi * 8 + jy;
                    if px < w && py < h {
                        let pred = match (kind, reference) {
                            (FrameKind::Predicted, Some(r)) => {
                                r.sample_clamped(px as i64 + mv.0, py as i64 + mv.1) as f64
                            }
                            _ => 128.0,
                        };
                        out.set(px, py, round_to_u8(block[(jy * 8 + jx) as usize] + pred));
                    }
                }
            }
        }
    }
    out
}

/// Bit cost of one non-zero quantised coefficient: sign + unary-ish
/// magnitude prefix + magnitude bits (Exp-Golomb flavoured).
pub(crate) fn coeff_bits(c: i16) -> u64 {
    let mag = c.unsigned_abs() as u64;
    2 * (64 - (mag + 1).leading_zeros() as u64) + 1
}

// --- 8×8 orthonormal DCT-II ------------------------------------------------

fn dct_basis() -> &'static [[f64; 8]; 8] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0.0; 8]; 8];
        for (k, row) in b.iter_mut().enumerate() {
            let scale = if k == 0 { (1.0f64 / 8.0).sqrt() } else { (2.0f64 / 8.0).sqrt() };
            for (n, cell) in row.iter_mut().enumerate() {
                *cell = scale * ((std::f64::consts::PI / 8.0) * (n as f64 + 0.5) * k as f64).cos();
            }
        }
        b
    })
}

/// Forward 2-D DCT of an 8×8 block (row-major).
fn fdct8x8(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = dct_basis();
    let mut tmp = [0f64; 64];
    // Rows.
    for y in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += input[y * 8 + n] * b[k][n];
            }
            tmp[y * 8 + k] = acc;
        }
    }
    // Columns.
    for x in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += tmp[n * 8 + x] * b[k][n];
            }
            output[k * 8 + x] = acc;
        }
    }
}

/// Inverse 2-D DCT of an 8×8 block.
fn idct8x8(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = dct_basis();
    let mut tmp = [0f64; 64];
    for x in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += input[k * 8 + x] * b[k][n];
            }
            tmp[n * 8 + x] = acc;
        }
    }
    for y in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += tmp[y * 8 + k] * b[k][n];
            }
            output[y * 8 + n] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_projection::Rgb;
    use proptest::prelude::*;

    /// The exhaustive, clamped motion search the fast kernel replaces:
    /// the oracle it must match vector for vector.
    fn estimate_global_motion_reference(cur: &Plane, reference: &Plane, range: i64) -> (i16, i16) {
        let w = cur.width() as i64;
        let h = cur.height() as i64;
        let mut best = (0i16, 0i16);
        let mut best_sad = u64::MAX;
        for dy in -range..=range {
            for dx in -range..=range {
                let mut sad = 0u64;
                let mut y = range;
                while y < h - range {
                    let mut x = range;
                    while x < w - range {
                        let c = cur.sample_clamped(x, y) as i64;
                        let r = reference.sample_clamped(x + dx, y + dy) as i64;
                        sad += c.abs_diff(r);
                        x += 2;
                    }
                    y += 2;
                }
                let penalty = (dx.unsigned_abs() + dy.unsigned_abs()) * 8;
                if sad + penalty < best_sad {
                    best_sad = sad + penalty;
                    best = (dx as i16, dy as i16);
                }
            }
        }
        best
    }

    /// The per-sample plane coder the table-driven kernel replaces:
    /// 128 `sample_clamped` calls, 64 `quant_step` calls and 128
    /// `f64::round` calls per block.
    fn code_plane_reference(
        plane: &Plane,
        reference: Option<&Plane>,
        kind: FrameKind,
        q: u8,
        is_luma: bool,
        mv: (i64, i64),
    ) -> (Plane, QuantizedPlane, u64) {
        let w = plane.width();
        let h = plane.height();
        let bx = w.div_ceil(8);
        let by = h.div_ceil(8);
        let mut entries: Vec<(u32, i16)> = Vec::new();
        let mut recon = Plane::filled(w, h, 0);
        let mut bits = 0u64;

        let mut block = [0f64; 64];
        let mut freq = [0f64; 64];
        for byi in 0..by {
            for bxi in 0..bx {
                for jy in 0..8 {
                    for jx in 0..8 {
                        let px = (bxi * 8 + jx) as i64;
                        let py = (byi * 8 + jy) as i64;
                        let cur = plane.sample_clamped(px, py) as f64;
                        let pred = match (kind, reference) {
                            (FrameKind::Predicted, Some(r)) => {
                                r.sample_clamped(px + mv.0, py + mv.1) as f64
                            }
                            _ => 128.0,
                        };
                        block[(jy * 8 + jx) as usize] = cur - pred;
                    }
                }
                fdct8x8(&block, &mut freq);
                let base = (byi * bx + bxi) * 64;
                let mut block_bits = 1u64;
                let mut any = false;
                for v in 0..8 {
                    for u in 0..8 {
                        let idx = v * 8 + u;
                        let step = quant_step(q, u, v, is_luma);
                        let qc = (freq[idx] / step).round();
                        let qc = qc.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
                        freq[idx] = qc as f64 * step;
                        if qc != 0 {
                            entries.push((base + idx as u32, qc));
                            any = true;
                            block_bits += coeff_bits(qc);
                        }
                    }
                }
                if any {
                    block_bits += 6;
                }
                bits += block_bits;
                idct8x8(&freq, &mut block);
                for jy in 0..8 {
                    for jx in 0..8 {
                        let px = bxi * 8 + jx;
                        let py = byi * 8 + jy;
                        if px < w && py < h {
                            let pred = match (kind, reference) {
                                (FrameKind::Predicted, Some(r)) => {
                                    r.sample_clamped(px as i64 + mv.0, py as i64 + mv.1) as f64
                                }
                                _ => 128.0,
                            };
                            let val = (block[(jy * 8 + jx) as usize] + pred)
                                .round()
                                .clamp(0.0, 255.0) as u8;
                            recon.set(px, py, val);
                        }
                    }
                }
            }
        }
        (recon, QuantizedPlane { width: w, height: h, entries }, bits)
    }

    /// A `w`×`h` plane from a sample function.
    fn plane(w: u32, h: u32, f: impl Fn(u32, u32) -> u8) -> Plane {
        let mut p = Plane::filled(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    fn textured(w: u32, h: u32, phase: f64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let v = ((x as f64 * 0.4 + phase).sin() * 60.0
                + (y as f64 * 0.3 - phase).cos() * 60.0
                + 128.0) as u8;
            Rgb::new(v, v / 2 + 60, 255 - v)
        })
    }

    #[test]
    fn dct_roundtrip_is_exact() {
        let mut input = [0f64; 64];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 251) as f64 - 120.0;
        }
        let mut freq = [0f64; 64];
        let mut back = [0f64; 64];
        fdct8x8(&input, &mut freq);
        idct8x8(&freq, &mut back);
        for i in 0..64 {
            assert!((input[i] - back[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let input = [42.0f64; 64];
        let mut freq = [0f64; 64];
        fdct8x8(&input, &mut freq);
        assert!((freq[0] - 42.0 * 8.0).abs() < 1e-9);
        for (i, &f) in freq.iter().enumerate().skip(1) {
            assert!(f.abs() < 1e-9, "coeff {i} = {f}");
        }
    }

    #[test]
    fn intra_roundtrip_quality() {
        let img = textured(48, 32, 0.0);
        let mut enc = Encoder::new(CodecConfig::new(30, 4));
        let f = enc.encode_frame(&img);
        assert_eq!(f.kind, FrameKind::Intra);
        let out = Decoder::new().decode_frame(&f);
        assert!(img.mean_abs_error(&out) < 0.03, "err {}", img.mean_abs_error(&out));
    }

    #[test]
    fn higher_quantizer_means_fewer_bytes_and_more_error() {
        let img = textured(48, 48, 1.0);
        let frame_at = |q: u8| {
            let mut enc = Encoder::new(CodecConfig::new(30, q));
            enc.encode_frame(&img)
        };
        let fine = frame_at(2);
        let coarse = frame_at(40);
        assert!(coarse.bytes < fine.bytes);
        let out_fine = Decoder::new().decode_frame(&fine);
        let out_coarse = Decoder::new().decode_frame(&coarse);
        assert!(img.mean_abs_error(&out_fine) < img.mean_abs_error(&out_coarse));
    }

    #[test]
    fn static_content_makes_tiny_p_frames() {
        let img = textured(48, 32, 0.5);
        let mut enc = Encoder::new(CodecConfig::default());
        let i = enc.encode_frame(&img);
        let p = enc.encode_frame(&img);
        assert_eq!(p.kind, FrameKind::Predicted);
        // Compare payloads: at this tiny test resolution the fixed frame
        // header dominates the wire size.
        let payload = |f: &EncodedFrame| f.bytes - FRAME_HEADER_BYTES;
        assert!(payload(&p) * 4 < payload(&i), "I {} P {}", i.bytes, p.bytes);
    }

    /// Content whose two halves move in opposite directions — no global
    /// motion vector can compensate it.
    fn shearing(w: u32, h: u32, phase: f64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let p = if y < h / 2 { phase } else { -phase };
            let v = ((x as f64 * 0.55 + p).sin() * 90.0 + 128.0) as u8;
            Rgb::new(v, v, 255 - v)
        })
    }

    #[test]
    fn deforming_content_makes_bigger_p_frames_than_static() {
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&shearing(48, 32, 0.0));
        let p_static = enc.encode_frame(&shearing(48, 32, 0.0));
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&shearing(48, 32, 0.0));
        let p_moving = enc.encode_frame(&shearing(48, 32, 2.0));
        assert!(
            p_moving.bytes > p_static.bytes * 2,
            "moving {} static {}",
            p_moving.bytes,
            p_static.bytes
        );
    }

    #[test]
    fn global_pan_is_nearly_free_with_motion_compensation() {
        // A pure translation of the whole frame: the global-motion
        // predictor absorbs it, so the P frame stays far below intra size.
        let wide = |shift: u32| {
            ImageBuffer::from_fn(64, 32, |x, y| {
                let v = ((((x + shift) % 64) as f64 * 0.5).sin() * 80.0
                    + (y as f64 * 0.4).cos() * 50.0
                    + 128.0) as u8;
                Rgb::new(v, 255 - v, v / 2)
            })
        };
        let mut enc = Encoder::new(CodecConfig::default());
        let i = enc.encode_frame(&wide(0));
        let p = enc.encode_frame(&wide(3));
        assert_eq!(p.kind, FrameKind::Predicted);
        assert_eq!(p.motion.0.unsigned_abs(), 3, "motion {:?}", p.motion);
        // Not arbitrarily small: chroma MC rounds to half the luma vector
        // and the wrap seam stays uncompensated, but the win is clear.
        assert!(
            p.payload_bytes() * 2 < i.payload_bytes(),
            "P {} vs I {}",
            p.payload_bytes(),
            i.payload_bytes()
        );
    }

    #[test]
    fn decoder_tracks_p_frame_chain_without_drift() {
        let mut enc = Encoder::new(CodecConfig::new(30, 6));
        let frames: Vec<_> = (0..5).map(|i| textured(32, 32, i as f64 * 0.3)).collect();
        let encoded: Vec<_> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        let mut dec = Decoder::new();
        for (orig, ef) in frames.iter().zip(&encoded) {
            let out = dec.decode_frame(ef);
            assert!(orig.mean_abs_error(&out) < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "predicted frame without reference")]
    fn p_frame_without_reference_panics() {
        let mut enc = Encoder::new(CodecConfig::default());
        let _ = enc.encode_frame(&textured(16, 16, 0.0));
        let p = enc.encode_frame(&textured(16, 16, 0.1));
        let _ = Decoder::new().decode_frame(&p);
    }

    #[test]
    fn encode_video_segments_are_gop_aligned() {
        let images = (0..7).map(|i| textured(16, 16, i as f64 * 0.1));
        let meta = VideoMeta::new(16, 16, 30.0, evr_projection::Projection::Erp);
        let v = Encoder::encode_video(meta, CodecConfig::new(3, 10), images);
        assert_eq!(v.segments.len(), 3);
        assert_eq!(v.frame_count(), 7);
        for seg in &v.segments {
            assert_eq!(seg.frames[0].kind, FrameKind::Intra);
            for f in &seg.frames[1..] {
                assert_eq!(f.kind, FrameKind::Predicted);
            }
        }
        assert_eq!(v.segments[1].start_index, 3);
        assert!(v.bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "quantizer")]
    fn invalid_quantizer_panics() {
        let _ = CodecConfig::new(30, 0);
    }

    #[test]
    fn frame_of_another_size_is_coded_intra_and_decodes() {
        // One GOP mixing rasters: a frame whose size differs from the
        // reference cannot be motion-compensated from it.
        let sizes = [(32, 32), (32, 32), (48, 24), (48, 24), (32, 32)];
        let frames: Vec<_> =
            sizes.iter().enumerate().map(|(i, &(w, h))| textured(w, h, i as f64 * 0.2)).collect();
        let mut enc = Encoder::new(CodecConfig::new(30, 6));
        let encoded: Vec<_> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        let kinds: Vec<_> = encoded.iter().map(|f| f.kind).collect();
        use FrameKind::{Intra, Predicted};
        assert_eq!(kinds, [Intra, Predicted, Intra, Predicted, Intra]);
        let mut dec = Decoder::new();
        for (orig, ef) in frames.iter().zip(&encoded) {
            let out = dec.decode_frame(ef);
            assert_eq!((out.width(), out.height()), (orig.width(), orig.height()));
            assert!(orig.mean_abs_error(&out) < 0.05, "err {}", orig.mean_abs_error(&out));
        }
    }

    #[test]
    fn motion_search_matches_reference_on_edge_cases() {
        let tex = |phase: u32| move |x: u32, y: u32| ((x * 37 + y * 11 + phase) % 251) as u8;
        // Identical frames, constant planes (every candidate ties on
        // SAD), planes too small to sample, and a 1×1 plane.
        let cases = [
            (plane(40, 30, tex(0)), plane(40, 30, tex(0))),
            (plane(40, 30, |_, _| 90), plane(40, 30, |_, _| 90)),
            (plane(17, 17, tex(3)), plane(17, 17, tex(9))),
            (plane(18, 40, tex(3)), plane(18, 40, tex(9))),
            (plane(1, 1, |_, _| 5), plane(1, 1, |_, _| 200)),
        ];
        for (cur, reference) in &cases {
            for range in [0, 1, 8] {
                assert_eq!(
                    estimate_global_motion(cur, reference, range),
                    estimate_global_motion_reference(cur, reference, range),
                    "{}x{} range {range}",
                    cur.width(),
                    cur.height()
                );
            }
        }
    }

    #[test]
    fn motion_search_breaks_equal_cost_ties_in_raster_order() {
        // Columns alternate between two values and the reference is the
        // current frame shifted by one column: every odd `dx` matches
        // exactly, so `(-1, 0)` and `(1, 0)` tie on SAD and penalty, and
        // the first in raster order must win.
        let cur = plane(36, 36, |x, _| if x % 2 == 0 { 30 } else { 220 });
        let shifted = plane(36, 36, |x, _| if x % 2 == 0 { 220 } else { 30 });
        for range in [1, 2, 8] {
            assert_eq!(estimate_global_motion(&cur, &shifted, range), (-1, 0), "range {range}");
            assert_eq!(estimate_global_motion_reference(&cur, &shifted, range), (-1, 0));
        }
    }

    #[test]
    fn motion_search_ties_with_the_zero_vector_keep_raster_order() {
        // Range 1 samples the odd rows and columns. The reference sits 1
        // above the flat current frame there and 5 above on even rows, so
        // the zero vector costs 64. One column of even samples matches
        // exactly, which makes the horizontal neighbour reading it cost
        // 56 + 8 = 64 too: a tie the first vector in raster order wins.
        let cur = plane(18, 18, |_, _| 100);
        let reference = |exact_col: u32| {
            plane(18, 18, move |x, y| match (y % 2, x) {
                (0, _) => 105,
                (_, x) if x == exact_col => 100,
                _ => 101,
            })
        };
        for (exact_col, want) in [(0, (-1, 0)), (16, (0, 0))] {
            let reference = reference(exact_col);
            assert_eq!(estimate_global_motion(&cur, &reference, 1), want, "column {exact_col}");
            assert_eq!(estimate_global_motion_reference(&cur, &reference, 1), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_motion_search_matches_reference(
            w in 1u32..48,
            h in 1u32..40,
            range in 0i64..=8,
            shift in (-9i32..=9, -9i32..=9),
            noise in 0u32..4,
            seed in 0u32..1000,
        ) {
            // A shifted copy of a texture plus sparse noise: the true
            // vector, its neighbours and the zero vector all compete.
            let tex = |x: i64, y: i64| {
                let v = (x * 29 + y * 13 + seed as i64).rem_euclid(97) as u32;
                (v * 5 % 256) as u8
            };
            let cur = plane(w, h, |x, y| tex(x as i64, y as i64));
            let reference = plane(w, h, |x, y| {
                let v = tex(x as i64 - shift.0 as i64, y as i64 - shift.1 as i64);
                if noise > 0 && (x * 7 + y * 3 + seed) % (11 * noise) == 0 { v / 2 } else { v }
            });
            prop_assert_eq!(
                estimate_global_motion(&cur, &reference, range),
                estimate_global_motion_reference(&cur, &reference, range)
            );
            // Range 0 and identical frames always keep the zero vector.
            prop_assert_eq!(estimate_global_motion(&cur, &reference, 0), (0, 0));
            prop_assert_eq!(estimate_global_motion(&cur, &cur, range), (0, 0));
        }
    }

    /// A plane of full-range texture plus a smooth ramp, so blocks carry
    /// both large and near-zero coefficients.
    fn noisy_plane(w: u32, h: u32, seed: u32) -> Plane {
        plane(w, h, |x, y| {
            let k = (x.wrapping_mul(2654435761) ^ y.wrapping_mul(40503) ^ seed).rotate_left(13);
            ((k % 96) + (x * 5 + y * 3) % 160) as u8
        })
    }

    #[test]
    fn code_plane_matches_reference_on_edge_cases() {
        // Plane sizes from 1×1 to just past a block, intra blocks, and
        // vectors that move the whole prediction block off the plane.
        for (w, h) in [(1, 1), (7, 9), (8, 8), (9, 8), (16, 1), (24, 17)] {
            let cur = noisy_plane(w, h, 5);
            let reference = noisy_plane(w, h, 11);
            for mv in [(0, 0), (-3, 2), (40, -40), (-9, 9), (1, 0)] {
                for kind in [FrameKind::Intra, FrameKind::Predicted] {
                    for (q, is_luma) in [(1, true), (12, true), (15, false), (50, false)] {
                        assert_eq!(
                            code_plane(&cur, Some(&reference), kind, q, is_luma, mv),
                            code_plane_reference(&cur, Some(&reference), kind, q, is_luma, mv),
                            "{w}x{h} {kind:?} q{q} luma {is_luma} mv {mv:?}"
                        );
                    }
                }
            }
            // A predicted plane with no reference predicts 128, as intra.
            assert_eq!(
                code_plane(&cur, None, FrameKind::Predicted, 12, true, (2, 2)),
                code_plane_reference(&cur, None, FrameKind::Predicted, 12, true, (2, 2))
            );
        }
    }

    #[test]
    fn blocks_that_quantise_to_zero_reconstruct_as_their_prediction() {
        // A predicted plane equal to its reference, and a flat intra
        // plane at the intra prediction: every block codes no level and
        // costs only its skip flag.
        let reference = noisy_plane(21, 13, 7);
        let flat = plane(21, 13, |_, _| 128);
        let blocks = 3 * 2;
        for (cur, kind) in [(&reference, FrameKind::Predicted), (&flat, FrameKind::Intra)] {
            let coded = code_plane(cur, Some(&reference), kind, 12, true, (0, 0));
            assert_eq!(coded, code_plane_reference(cur, Some(&reference), kind, 12, true, (0, 0)));
            let (recon, levels, bits) = coded;
            assert_eq!(&recon, cur);
            assert_eq!((levels.nonzero_coeffs(), bits), (0, blocks));
        }
        // Flat residuals on either side of the DC level's rounding
        // threshold: the DCT puts 8× a flat residual into the DC, so at
        // step 30 a residual of ±1 is 0.27 of a step and skips, and ±2
        // is 0.53 of a step and codes one level.
        for (offset, levels) in [(0, 0), (1, 0), (-1, 0), (2, 1), (-2, 1), (30, 1)] {
            let cur = plane(8, 8, |_, _| (128 + offset) as u8);
            let coded = code_plane(&cur, None, FrameKind::Intra, 30, true, (0, 0));
            assert_eq!(coded, code_plane_reference(&cur, None, FrameKind::Intra, 30, true, (0, 0)));
            assert_eq!(coded.1.nonzero_coeffs(), levels, "offset {offset}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Sizes that are not multiples of 8, intra and predicted planes,
        /// vectors that leave the plane, every quantiser, luma and chroma,
        /// references of the coded plane's size or another one, and
        /// planes close enough to their prediction that blocks skip.
        #[test]
        fn prop_code_plane_matches_reference(
            (w, h) in (1u32..41, 1u32..30),
            (mvx, mvy) in (-20i64..=20, -20i64..=20),
            q in 1u8..=50,
            (predicted, is_luma, same_size) in (any::<bool>(), any::<bool>(), 0u32..4),
            (near, amplitude) in (any::<bool>(), 0u32..8),
            seed in any::<u32>(),
        ) {
            // Mostly the coded plane's size (as the encoder guarantees),
            // sometimes another: the kernel must not assume it.
            let (rw, rh) = if same_size > 0 { (w, h) } else { (w + 5, h.max(2) - 1) };
            let reference = noisy_plane(rw, rh, seed ^ 0x5bd1_e995);
            // Half the cases code the motion-compensated reference plus
            // noise of at most `amplitude` (0 included), so a share of
            // predicted blocks quantise to all zeros; the rest code an
            // unrelated plane, whose blocks almost never do.
            let cur = if near {
                plane(w, h, |x, y| {
                    let p = reference.sample_clamped(i64::from(x) + mvx, i64::from(y) + mvy);
                    let k = (x.wrapping_mul(2654435761) ^ y.wrapping_mul(40503) ^ seed)
                        .rotate_left(7);
                    let noise = (k % (2 * amplitude + 1)) as i32 - amplitude as i32;
                    (i32::from(p) + noise).clamp(0, 255) as u8
                })
            } else {
                noisy_plane(w, h, seed)
            };
            let kind = if predicted { FrameKind::Predicted } else { FrameKind::Intra };
            prop_assert_eq!(
                code_plane(&cur, Some(&reference), kind, q, is_luma, (mvx, mvy)),
                code_plane_reference(&cur, Some(&reference), kind, q, is_luma, (mvx, mvy))
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_decode_matches_encoder_reconstruction(seed in 0u32..50) {
            // The decoder must track the encoder's reconstruction exactly
            // (same coefficients, same arithmetic).
            let img1 = textured(24, 16, seed as f64 * 0.17);
            let img2 = textured(24, 16, seed as f64 * 0.17 + 0.4);
            let mut enc = Encoder::new(CodecConfig::new(30, 8));
            let e1 = enc.encode_frame(&img1);
            let e2 = enc.encode_frame(&img2);
            let mut dec = Decoder::new();
            let _ = dec.decode_frame(&e1);
            let d2 = dec.decode_frame(&e2);
            // Re-encoding the decoded frame as a P-frame on the same
            // reference chain should produce near-zero residual bytes.
            let mut enc2 = Encoder::new(CodecConfig::new(30, 8));
            let _ = enc2.encode_frame(&d2);
            prop_assert!(img2.mean_abs_error(&d2) < 0.08);
        }
    }
}
