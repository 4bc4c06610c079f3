//! Delta representation for ladder rungs: a lower-rung segment stored as
//! sparse quantised-coefficient residuals against its top-rung sibling.
//!
//! The SAS cloud pre-renders one FOV stream per (cluster, rung) and the
//! rungs of one cluster are near-duplicates of each other — the same
//! rendered frames, quantised coarser. Viewport-adaptive delivery schemes
//! exploit exactly this redundancy (Corbillon et al.; Hosseini &
//! Swaminathan, MPEG-DASH SRD), and this module does the same at the
//! coefficient level of [`crate::codec`]:
//!
//! * the **reference** is the independently encoded top rung;
//! * a coefficient of the target rung is *predicted* by requantising the
//!   reference coefficient at the same global index (scaling by the ratio
//!   of the quantisation steps) — for most coefficients the prediction is
//!   exact and the residual quantises away;
//! * only non-zero residuals are stored, costed with the same entropy
//!   model as the encoder proper.
//!
//! [`DeltaSegment::reconstruct`] is **bit-exact**: it rebuilds the target
//! [`EncodedSegment`] coefficient-for-coefficient and byte-for-byte, so a
//! delta-resident store serves the identical stream an independent store
//! would. [`SegmentRepr::delta_or_full`] enforces the fallback rule —
//! whenever the delta would not be smaller than the independent encoding,
//! the full encoding is kept.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use evr_math::round::round_to_i16;

use crate::codec::{
    coeff_bits, quant_step, EncodedFrame, EncodedSegment, QuantizedPlane, FRAME_HEADER_BYTES,
};

/// Fixed per-frame header of the delta wire format: reference pointer,
/// frame kind, quantiser pair and motion vector. Smaller than the full
/// frame header (96 bytes) because the stream-level metadata lives with
/// the reference.
pub const DELTA_FRAME_HEADER_BYTES: u64 = 32;

/// A stable digest of an encoded segment, used to pin a delta to the
/// exact reference it was computed against.
pub fn segment_digest(segment: &EncodedSegment) -> u64 {
    let mut digest = SegmentDigest::new(segment.start_index, segment.frames.len());
    for f in &segment.frames {
        digest.frame(f.bytes, f.quantizer, f.motion, f.nonzero_coeffs());
    }
    digest.0
}

/// The FNV-1a state of [`segment_digest`], fed one frame summary at a
/// time so that [`DeltaSegment::encode_upgrade`] can digest a rung it
/// never materialises.
struct SegmentDigest(u64);

impl SegmentDigest {
    fn new(start_index: u64, frames: usize) -> SegmentDigest {
        let mut digest = SegmentDigest(0xcbf2_9ce4_8422_2325); // FNV-1a offset basis
        digest.eat(start_index);
        digest.eat(frames as u64);
        digest
    }

    fn frame(&mut self, bytes: u64, quantizer: u8, motion: (i16, i16), nonzero_coeffs: u64) {
        self.eat(bytes);
        self.eat(quantizer as u64);
        self.eat(motion.0 as u16 as u64 | ((motion.1 as u16 as u64) << 16));
        self.eat(nonzero_coeffs);
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Sparse coefficient residuals of one plane against the requantised
/// reference plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PlaneDelta {
    width: u32,
    height: u32,
    /// `(global index, target − predicted)` pairs, ascending by index,
    /// zero residuals omitted.
    residuals: Vec<(u32, i16)>,
}

impl PlaneDelta {
    /// Entropy-model bits, mirroring the encoder's accounting
    /// ([`sparse_bits`]) over the non-zero residuals.
    fn bits(&self) -> u64 {
        sparse_bits(self.width, self.height, &self.residuals)
    }
}

/// 8×8 blocks of a `width`×`height` plane: one skip/coded flag bit each.
fn block_count(width: u32, height: u32) -> u64 {
    (width.div_ceil(8) as u64) * (height.div_ceil(8) as u64)
}

/// Entropy-model bits of sparse coefficients over a `width`×`height`
/// plane — the encoder's accounting (one skip/coded flag per block, 6
/// bits of block addressing per coded block, [`coeff_bits`] per
/// coefficient) replayed over the `(index, value)` pairs.
fn sparse_bits(width: u32, height: u32, coeffs: &[(u32, i16)]) -> u64 {
    let mut bits = block_count(width, height); // skip/coded flags
    let mut last_block = u32::MAX;
    for &(idx, v) in coeffs {
        let block = idx / 64;
        if block != last_block {
            bits += 6; // block addressing / CBP overhead
            last_block = block;
        }
        bits += coeff_bits(v);
    }
    bits
}

/// The `u + v` class of the coefficient at global index `idx`: the only
/// part of its position that `quant_step` depends on.
#[inline]
fn class_of(idx: u32) -> usize {
    let pos = (idx % 64) as usize;
    pos / 8 + pos % 8
}

/// The requantisation ratios `quant_step(from_q, u, v) / quant_step(to_q,
/// u, v)` of one quantiser pair and plane kind, one per `u + v` class
/// ([`class_of`]). Each is computed by the same expression at one
/// `(u, v)` with that sum, so it is bit-identical to the ratio at every
/// other such position (DESIGN.md §16).
fn class_ratios(from_q: u8, to_q: u8, is_luma: bool) -> [f64; 15] {
    std::array::from_fn(|k| {
        let (v, u) = (k.saturating_sub(7), k.min(7));
        quant_step(from_q, u, v, is_luma) / quant_step(to_q, u, v, is_luma)
    })
}

/// Coefficients of magnitude up to this bound rescale by table lookup
/// ([`RescaleTable`]); larger ones run the f64 expression.
const LOOKUP_BOUND: i16 = 64;

/// Lookup slots per `u + v` class: one per value in
/// `-LOOKUP_BOUND..=LOOKUP_BOUND`.
const LOOKUP_SLOTS: usize = 2 * LOOKUP_BOUND as usize + 1;

/// The rescaled value of every coefficient within [`LOOKUP_BOUND`], per
/// `u + v` class, for one plane kind of one quantiser pair.
type ClassTable = [[i16; LOOKUP_SLOTS]; 15];

/// Both plane kinds of one quantiser pair: 2 × 15 × 129 i16 = 7,740
/// bytes. Every cell is the f64 expression [`PlaneRescale::rescale`]
/// runs beyond the bound, evaluated once, so a lookup is bit-identical
/// to the expression (DESIGN.md §16).
struct RescaleTable {
    luma: ClassTable,
    chroma: ClassTable,
}

impl RescaleTable {
    /// The codec's quantisers: a table exists for every pair of them.
    const QUANTIZERS: std::ops::RangeInclusive<u8> = 1..=50;

    fn build(from_q: u8, to_q: u8) -> Box<RescaleTable> {
        let classes = |is_luma| {
            class_ratios(from_q, to_q, is_luma).map(|ratio| {
                std::array::from_fn(|slot| {
                    let value = slot as i16 - LOOKUP_BOUND;
                    round_to_i16(f64::from(value) * ratio)
                })
            })
        };
        Box::new(RescaleTable { luma: classes(true), chroma: classes(false) })
    }

    /// The process-wide table of `(from_q, to_q)`, built on first use
    /// like the codec's DCT basis; `None` when either quantiser lies
    /// outside the codec's range. Only pairs that are used get a table.
    fn of(from_q: u8, to_q: u8) -> Option<&'static RescaleTable> {
        const N: usize = 50;
        static TABLES: [OnceLock<Box<RescaleTable>>; N * N] = [const { OnceLock::new() }; N * N];
        if !Self::QUANTIZERS.contains(&from_q) || !Self::QUANTIZERS.contains(&to_q) {
            return None;
        }
        let cell = &TABLES[usize::from(from_q - 1) * N + usize::from(to_q - 1)];
        Some(cell.get_or_init(|| RescaleTable::build(from_q, to_q)))
    }
}

/// How one quantiser pair rescales the coefficients of one plane kind:
/// the class ratios, and the pair's lookup table when it has one.
#[derive(Debug, Clone, Copy)]
struct PlaneRescale {
    ratios: [f64; 15],
    table: Option<&'static ClassTable>,
}

impl PlaneRescale {
    /// Rescales the coefficient `value` at global index `idx` by its step
    /// ratio: the target-rung value the reference coefficient predicts,
    /// rounded as `f64::round` would but without the libm call
    /// ([`evr_math::round`]). Values within [`LOOKUP_BOUND`] read the
    /// table instead of running the multiply.
    #[inline]
    fn rescale(&self, value: i16, idx: u32) -> i32 {
        let class = class_of(idx);
        // A value below −LOOKUP_BOUND wraps to a slot far past the table.
        let slot = (i32::from(value) + i32::from(LOOKUP_BOUND)) as usize;
        match self.table {
            Some(table) if slot < LOOKUP_SLOTS => i32::from(table[class][slot]),
            _ => i32::from(round_to_i16(f64::from(value) * self.ratios[class])),
        }
    }
}

/// The rescaling of one quantiser pair, per plane kind.
#[derive(Debug, Clone, Copy)]
struct StepRatios {
    quantizers: (u8, u8),
    luma: PlaneRescale,
    chroma: PlaneRescale,
}

impl StepRatios {
    fn new(from_q: u8, to_q: u8) -> StepRatios {
        let table = RescaleTable::of(from_q, to_q);
        StepRatios {
            quantizers: (from_q, to_q),
            luma: PlaneRescale {
                ratios: class_ratios(from_q, to_q, true),
                table: table.map(|t| &t.luma),
            },
            chroma: PlaneRescale {
                ratios: class_ratios(from_q, to_q, false),
                table: table.map(|t| &t.chroma),
            },
        }
    }
}

/// The step ratios of the last quantiser pair asked for. Every frame
/// carries its own quantiser, but a segment's frames mostly share one,
/// so the ratios are recomputed only when the pair changes between
/// frames.
#[derive(Debug, Default)]
struct RatioCache(Option<StepRatios>);

impl RatioCache {
    fn get(&mut self, from_q: u8, to_q: u8) -> &StepRatios {
        if !matches!(&self.0, Some(r) if r.quantizers == (from_q, to_q)) {
            self.0 = Some(StepRatios::new(from_q, to_q));
        }
        self.0.as_ref().expect("filled above")
    }
}

/// The first `kept` residuals of `scratch`, clamped to i16, at exact
/// capacity.
fn kept_residuals(scratch: &[(u32, i32)], kept: usize) -> Vec<(u32, i16)> {
    scratch[..kept]
        .iter()
        .map(|&(idx, r)| (idx, r.clamp(i16::MIN as i32, i16::MAX as i32) as i16))
        .collect()
}

/// Computes the residuals of `target` against `reference` requantised
/// by `rescale`. Returns `None` on a plane shape mismatch.
///
/// Every merge step writes its unclamped residual to `scratch` and
/// advances only past a non-zero one, so the walk has no branch on the
/// residual; the kept prefix is clamped to i16 and copied out at exact
/// capacity. `scratch` only ever grows and its stale tail is never read,
/// so one buffer serves every plane of a segment without being
/// zero-filled again.
fn diff_plane(
    target: &QuantizedPlane,
    reference: &QuantizedPlane,
    rescale: &PlaneRescale,
    scratch: &mut Vec<(u32, i32)>,
) -> Option<PlaneDelta> {
    if target.width != reference.width || target.height != reference.height {
        return None;
    }
    // Each merge step consumes at least one entry.
    let steps = target.entries.len() + reference.entries.len();
    if scratch.len() < steps {
        scratch.resize(steps, (0, 0));
    }
    let mut kept = 0usize;
    let mut ti = 0usize;
    let mut ri = 0usize;
    // Merge-walk the two ascending sparse streams.
    while ti < target.entries.len() || ri < reference.entries.len() {
        let tn = target.entries.get(ti).map(|e| e.0).unwrap_or(u32::MAX);
        let rn = reference.entries.get(ri).map(|e| e.0).unwrap_or(u32::MAX);
        let idx = tn.min(rn);
        let tv = if tn == idx {
            ti += 1;
            target.entries[ti - 1].1
        } else {
            0
        };
        let rv = if rn == idx {
            ri += 1;
            reference.entries[ri - 1].1
        } else {
            0
        };
        let r = tv as i32 - rescale.rescale(rv, idx);
        scratch[kept] = (idx, r);
        kept += usize::from(r != 0);
    }
    Some(PlaneDelta {
        width: target.width,
        height: target.height,
        residuals: kept_residuals(scratch, kept),
    })
}

/// The entropy bits and coefficient count of a rung that
/// [`DeltaSegment::encode_upgrade`] digests without materialising it.
#[derive(Debug, Default)]
struct RungSummary {
    bits: u64,
    coeffs: u64,
}

/// One plane of [`DeltaSegment::encode_upgrade`]: the residuals of `top`
/// against its requantisation by `down`, predicted back up by `up` — what
/// `diff_plane(top, &requantize_plane(top, down), up)` returns — in one
/// walk of `top`. Every coefficient of the requantised plane sits at an
/// index of `top` (the entries ascend, as the encoder writes them), so
/// the merge walk visits exactly `top`'s indices and reads the
/// requantised value, or 0 where it quantised away, at each. The
/// requantised plane's entropy bits ([`sparse_bits`]) and coefficient
/// count are added to `rung`.
fn upgrade_plane(
    top: &QuantizedPlane,
    down: &PlaneRescale,
    up: &PlaneRescale,
    scratch: &mut Vec<(u32, i32)>,
    rung: &mut RungSummary,
) -> PlaneDelta {
    if scratch.len() < top.entries.len() {
        scratch.resize(top.entries.len(), (0, 0));
    }
    let mut kept = 0usize;
    let mut bits = block_count(top.width, top.height); // skip/coded flags
    let mut coeffs = 0u64;
    let mut last_block = u32::MAX;
    for &(idx, v) in &top.entries {
        let coarse = down.rescale(v, idx);
        if coarse != 0 {
            // Block addressing / CBP overhead on the block's first one.
            let block = idx / 64;
            bits += coeff_bits(coarse as i16) + 6 * u64::from(block != last_block);
            last_block = block;
            coeffs += 1;
        }
        let r = i32::from(v) - up.rescale(coarse as i16, idx);
        scratch[kept] = (idx, r);
        kept += usize::from(r != 0);
    }
    rung.bits += bits;
    rung.coeffs += coeffs;
    PlaneDelta { width: top.width, height: top.height, residuals: kept_residuals(scratch, kept) }
}

/// Applies residuals back onto the reference requantised by `rescale`,
/// recovering the target plane exactly (zero-valued coefficients are
/// dropped, matching the encoder's sparse form). With no residuals —
/// every lower rung's delta against the top it was transcoded from — the
/// target is the requantised reference itself.
fn apply_plane(
    delta: &PlaneDelta,
    reference: &QuantizedPlane,
    rescale: &PlaneRescale,
) -> QuantizedPlane {
    if delta.residuals.is_empty() {
        let entries = requantize_plane(reference, rescale).entries;
        return QuantizedPlane { width: delta.width, height: delta.height, entries };
    }
    let mut entries = Vec::with_capacity(delta.residuals.len() + reference.entries.len());
    let mut di = 0usize;
    let mut ri = 0usize;
    while di < delta.residuals.len() || ri < reference.entries.len() {
        let dn = delta.residuals.get(di).map(|e| e.0).unwrap_or(u32::MAX);
        let rn = reference.entries.get(ri).map(|e| e.0).unwrap_or(u32::MAX);
        let idx = dn.min(rn);
        let dv = if dn == idx {
            di += 1;
            delta.residuals[di - 1].1
        } else {
            0
        };
        let rv = if rn == idx {
            ri += 1;
            reference.entries[ri - 1].1
        } else {
            0
        };
        let val = rescale.rescale(rv, idx) + dv as i32;
        if val != 0 {
            entries.push((idx, val as i16));
        }
    }
    entries.shrink_to_fit();
    QuantizedPlane { width: delta.width, height: delta.height, entries }
}

/// One frame of a delta segment: the target frame's metadata verbatim plus
/// per-plane residuals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DeltaFrame {
    kind: crate::codec::FrameKind,
    bytes: u64,
    quantizer: u8,
    motion: (i16, i16),
    y: PlaneDelta,
    cb: PlaneDelta,
    cr: PlaneDelta,
}

impl DeltaFrame {
    /// Modelled wire bytes of this delta frame.
    fn delta_bytes(&self) -> u64 {
        DELTA_FRAME_HEADER_BYTES
            + (self.y.bits() + self.cb.bits() + self.cr.bits() + 24).div_ceil(8)
    }

    fn residual_coeffs(&self) -> u64 {
        (self.y.residuals.len() + self.cb.residuals.len() + self.cr.residuals.len()) as u64
    }
}

/// A lower ladder rung stored as residuals against a reference segment.
///
/// Created by [`DeltaSegment::encode`]; [`DeltaSegment::reconstruct`]
/// recovers the independently encoded target bit-exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaSegment {
    /// Index of the first frame in the stream (copied from the target).
    pub start_index: u64,
    /// Quantiser of the reference rung the residuals were taken against.
    pub reference_quantizer: u8,
    /// [`segment_digest`] of the reference; checked on reconstruction.
    pub reference_digest: u64,
    frames: Vec<DeltaFrame>,
}

impl DeltaSegment {
    /// Delta-encodes `target` against `reference`. Returns `None` when the
    /// segments are not shape-compatible (different frame counts or plane
    /// dimensions) — e.g. tiled rungs rendered at different resolutions.
    pub fn encode(target: &EncodedSegment, reference: &EncodedSegment) -> Option<DeltaSegment> {
        if target.frames.len() != reference.frames.len() || target.frames.is_empty() {
            return None;
        }
        let mut frames = Vec::with_capacity(target.frames.len());
        let mut ratios = RatioCache::default();
        let mut scratch = Vec::new();
        for (t, r) in target.frames.iter().zip(&reference.frames) {
            let ratios = ratios.get(r.quantizer, t.quantizer);
            frames.push(DeltaFrame {
                kind: t.kind,
                bytes: t.bytes,
                quantizer: t.quantizer,
                motion: t.motion,
                y: diff_plane(&t.y, &r.y, &ratios.luma, &mut scratch)?,
                cb: diff_plane(&t.cb, &r.cb, &ratios.chroma, &mut scratch)?,
                cr: diff_plane(&t.cr, &r.cr, &ratios.chroma, &mut scratch)?,
            });
        }
        Some(DeltaSegment {
            start_index: target.start_index,
            reference_quantizer: reference.frames[0].quantizer,
            reference_digest: segment_digest(reference),
            frames,
        })
    }

    /// The upgrade delta of `top` for a client holding its rung at
    /// `reference_quantizer`: equal, reference digest included, to
    /// `DeltaSegment::encode(top, &transcode_segment(top, reference_quantizer))`,
    /// but computed in one walk of `top`'s coefficients without building
    /// the rung. Each coefficient is requantised down to the rung and
    /// predicted back up; the rung's frame sizes and coefficient counts,
    /// all that [`segment_digest`] reads of it, accumulate in the same
    /// walk. Returns `None` for an empty segment, as `encode` does.
    ///
    /// # Panics
    ///
    /// Panics if `reference_quantizer` is outside the codec's `1..=50`,
    /// as [`transcode_segment`] does.
    pub fn encode_upgrade(top: &EncodedSegment, reference_quantizer: u8) -> Option<DeltaSegment> {
        assert!(
            RescaleTable::QUANTIZERS.contains(&reference_quantizer),
            "quantizer must be in 1..=50"
        );
        if top.frames.is_empty() {
            return None;
        }
        let q = reference_quantizer;
        let (mut down, mut up) = (RatioCache::default(), RatioCache::default());
        let mut scratch = Vec::new();
        let mut digest = SegmentDigest::new(top.start_index, top.frames.len());
        let mut frames = Vec::with_capacity(top.frames.len());
        for t in &top.frames {
            let (down, up) = (down.get(t.quantizer, q), up.get(q, t.quantizer));
            let mut rung = RungSummary::default();
            let y = upgrade_plane(&t.y, &down.luma, &up.luma, &mut scratch, &mut rung);
            let cb = upgrade_plane(&t.cb, &down.chroma, &up.chroma, &mut scratch, &mut rung);
            let cr = upgrade_plane(&t.cr, &down.chroma, &up.chroma, &mut scratch, &mut rung);
            let rung_bytes = FRAME_HEADER_BYTES + (rung.bits + 24).div_ceil(8);
            digest.frame(rung_bytes, q, t.motion, rung.coeffs);
            frames.push(DeltaFrame {
                kind: t.kind,
                bytes: t.bytes,
                quantizer: t.quantizer,
                motion: t.motion,
                y,
                cb,
                cr,
            });
        }
        Some(DeltaSegment {
            start_index: top.start_index,
            reference_quantizer: q,
            reference_digest: digest.0,
            frames,
        })
    }

    /// [`DeltaSegment::encode`], but only when the delta is strictly
    /// smaller than the independent encoding — the fallback rule shared
    /// by [`SegmentRepr::delta_or_full`] and the pre-render store.
    pub fn encode_if_smaller(
        target: &EncodedSegment,
        reference: &EncodedSegment,
    ) -> Option<DeltaSegment> {
        DeltaSegment::encode(target, reference).filter(|d| d.bytes() < target.bytes())
    }

    /// Rebuilds the target segment from `reference`, bit-exactly equal to
    /// the independently encoded original.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is not the segment this delta was encoded
    /// against (digest mismatch).
    pub fn reconstruct(&self, reference: &EncodedSegment) -> EncodedSegment {
        assert_eq!(
            segment_digest(reference),
            self.reference_digest,
            "delta reconstructed against the wrong reference segment"
        );
        let mut ratios = RatioCache::default();
        let frames = self
            .frames
            .iter()
            .zip(&reference.frames)
            .map(|(d, r)| {
                let ratios = ratios.get(r.quantizer, d.quantizer);
                EncodedFrame {
                    kind: d.kind,
                    bytes: d.bytes,
                    quantizer: d.quantizer,
                    motion: d.motion,
                    y: apply_plane(&d.y, &r.y, &ratios.luma),
                    cb: apply_plane(&d.cb, &r.cb, &ratios.chroma),
                    cr: apply_plane(&d.cr, &r.cr, &ratios.chroma),
                }
            })
            .collect();
        EncodedSegment { start_index: self.start_index, frames }
    }

    /// Modelled wire bytes of the delta representation.
    pub fn bytes(&self) -> u64 {
        self.frames.iter().map(DeltaFrame::delta_bytes).sum()
    }

    /// Wire bytes at a different resolution scale: residual payload scales
    /// with the pixel ratio, per-frame headers do not (mirrors
    /// [`EncodedSegment::scaled_bytes`]).
    pub fn scaled_bytes(&self, pixel_ratio: f64) -> u64 {
        let headers = self.frames.len() as u64 * DELTA_FRAME_HEADER_BYTES;
        let payload = self.bytes() - headers;
        headers + (payload as f64 * pixel_ratio) as u64
    }

    /// Total non-zero residual coefficients — a proxy for the
    /// client-side reconstruction cost.
    pub fn residual_coeffs(&self) -> u64 {
        self.frames.iter().map(DeltaFrame::residual_coeffs).sum()
    }

    /// Number of frames in the segment.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }
}

/// How a segment is materialised at rest: independently encoded, or as a
/// delta against a reference rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SegmentRepr {
    /// Independently encoded (also the fallback when a delta would not be
    /// smaller).
    Full(EncodedSegment),
    /// Residuals against a reference segment.
    Delta(DeltaSegment),
}

impl SegmentRepr {
    /// Delta-encodes `target` against `reference`, falling back to the
    /// full encoding whenever the delta is not strictly smaller (or the
    /// segments are shape-incompatible).
    pub fn delta_or_full(target: &EncodedSegment, reference: &EncodedSegment) -> SegmentRepr {
        match DeltaSegment::encode_if_smaller(target, reference) {
            Some(d) => SegmentRepr::Delta(d),
            None => SegmentRepr::Full(target.clone()),
        }
    }

    /// Recovers the independently encoded segment. For a `Full` repr this
    /// is the identity and `reference` is ignored; for a `Delta` repr the
    /// reference is required.
    ///
    /// # Panics
    ///
    /// Panics if a `Delta` repr is given no (or the wrong) reference.
    pub fn reconstruct(&self, reference: Option<&EncodedSegment>) -> EncodedSegment {
        match self {
            SegmentRepr::Full(seg) => seg.clone(),
            SegmentRepr::Delta(d) => {
                d.reconstruct(reference.expect("delta repr needs its reference segment"))
            }
        }
    }

    /// Resident bytes of this representation.
    pub fn bytes(&self) -> u64 {
        match self {
            SegmentRepr::Full(seg) => seg.bytes(),
            SegmentRepr::Delta(d) => d.bytes(),
        }
    }

    /// Resident bytes at a different resolution scale.
    pub fn scaled_bytes(&self, pixel_ratio: f64) -> u64 {
        match self {
            SegmentRepr::Full(seg) => seg.scaled_bytes(pixel_ratio),
            SegmentRepr::Delta(d) => d.scaled_bytes(pixel_ratio),
        }
    }

    /// Whether the delta representation won over the fallback.
    pub fn is_delta(&self) -> bool {
        matches!(self, SegmentRepr::Delta(_))
    }
}

/// Entropy-model bits of one quantised plane ([`sparse_bits`]).
fn plane_bits(plane: &QuantizedPlane) -> u64 {
    sparse_bits(plane.width, plane.height, &plane.entries)
}

/// Remaps a plane's sparse coefficients by `rescale` (the same rescaling
/// rule the delta prediction uses), dropping coefficients that quantise
/// away. The output is sized for the input; nothing quantises away
/// unless a ratio is below ½, so a ladder rung (at most twice the top
/// quantiser) comes out at exact capacity.
fn requantize_plane(plane: &QuantizedPlane, rescale: &PlaneRescale) -> QuantizedPlane {
    let mut entries = Vec::with_capacity(plane.entries.len());
    for &(idx, v) in &plane.entries {
        let nv = rescale.rescale(v, idx);
        if nv != 0 {
            entries.push((idx, nv as i16));
        }
    }
    entries.shrink_to_fit();
    QuantizedPlane { width: plane.width, height: plane.height, entries }
}

/// Re-encodes a segment at a coarser quantiser by requantising in the
/// coefficient domain (an open-loop transcode): every sparse coefficient
/// is remapped to the new step size, the GOP structure and motion
/// vectors are kept verbatim, and the wire cost is re-derived from the
/// encoder's entropy accounting. This is how lower FOV ladder rungs are
/// materialised from the top rung without re-rendering the scene — and
/// because no decode/re-encode round trip injects requantisation noise
/// into the inter frames, rung sizes stay monotone in the quantiser.
/// Deterministic: same input segment and quantiser, same output.
///
/// # Panics
///
/// Panics if `quantizer` is outside the codec's `1..=50`, as
/// [`crate::codec::CodecConfig::new`] does.
pub fn transcode_segment(segment: &EncodedSegment, quantizer: u8) -> EncodedSegment {
    assert!(RescaleTable::QUANTIZERS.contains(&quantizer), "quantizer must be in 1..=50");
    let mut ratios = RatioCache::default();
    let frames = segment
        .frames
        .iter()
        .map(|f| {
            let ratios = ratios.get(f.quantizer, quantizer);
            let y = requantize_plane(&f.y, &ratios.luma);
            let cb = requantize_plane(&f.cb, &ratios.chroma);
            let cr = requantize_plane(&f.cr, &ratios.chroma);
            let bits = plane_bits(&y) + plane_bits(&cb) + plane_bits(&cr);
            EncodedFrame {
                kind: f.kind,
                bytes: FRAME_HEADER_BYTES + (bits + 24).div_ceil(8),
                quantizer,
                motion: f.motion,
                y,
                cb,
                cr,
            }
        })
        .collect();
    EncodedSegment { start_index: segment.start_index, frames }
}

/// The per-coefficient kernels the step-ratio table replaced, kept as
/// test oracles: every fast kernel must reproduce them bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Predicts a target-rung coefficient from the reference-rung
    /// coefficient at the same index by rescaling through the
    /// dequantised value.
    pub(super) fn predict_coeff(
        ref_val: i16,
        idx: u32,
        ref_q: u8,
        tgt_q: u8,
        is_luma: bool,
    ) -> i32 {
        if ref_val == 0 {
            return 0;
        }
        let pos = (idx % 64) as usize;
        let (v, u) = (pos / 8, pos % 8);
        let scale = quant_step(ref_q, u, v, is_luma) / quant_step(tgt_q, u, v, is_luma);
        (ref_val as f64 * scale).round().clamp(i16::MIN as f64, i16::MAX as f64) as i32
    }

    fn diff_plane(
        target: &QuantizedPlane,
        reference: &QuantizedPlane,
        tgt_q: u8,
        ref_q: u8,
        is_luma: bool,
    ) -> Option<PlaneDelta> {
        if target.width != reference.width || target.height != reference.height {
            return None;
        }
        let mut residuals = Vec::new();
        let mut ti = 0usize;
        let mut ri = 0usize;
        while ti < target.entries.len() || ri < reference.entries.len() {
            let tn = target.entries.get(ti).map(|e| e.0).unwrap_or(u32::MAX);
            let rn = reference.entries.get(ri).map(|e| e.0).unwrap_or(u32::MAX);
            let idx = tn.min(rn);
            let tv = if tn == idx {
                ti += 1;
                target.entries[ti - 1].1
            } else {
                0
            };
            let rv = if rn == idx {
                ri += 1;
                reference.entries[ri - 1].1
            } else {
                0
            };
            let r = tv as i32 - predict_coeff(rv, idx, ref_q, tgt_q, is_luma);
            if r != 0 {
                residuals.push((idx, r.clamp(i16::MIN as i32, i16::MAX as i32) as i16));
            }
        }
        Some(PlaneDelta { width: target.width, height: target.height, residuals })
    }

    fn apply_plane(
        delta: &PlaneDelta,
        reference: &QuantizedPlane,
        tgt_q: u8,
        ref_q: u8,
        is_luma: bool,
    ) -> QuantizedPlane {
        let mut entries = Vec::new();
        let mut di = 0usize;
        let mut ri = 0usize;
        while di < delta.residuals.len() || ri < reference.entries.len() {
            let dn = delta.residuals.get(di).map(|e| e.0).unwrap_or(u32::MAX);
            let rn = reference.entries.get(ri).map(|e| e.0).unwrap_or(u32::MAX);
            let idx = dn.min(rn);
            let dv = if dn == idx {
                di += 1;
                delta.residuals[di - 1].1
            } else {
                0
            };
            let rv = if rn == idx {
                ri += 1;
                reference.entries[ri - 1].1
            } else {
                0
            };
            let val = predict_coeff(rv, idx, ref_q, tgt_q, is_luma) + dv as i32;
            if val != 0 {
                entries.push((idx, val as i16));
            }
        }
        QuantizedPlane { width: delta.width, height: delta.height, entries }
    }

    fn requantize_plane(
        plane: &QuantizedPlane,
        from_q: u8,
        to_q: u8,
        is_luma: bool,
    ) -> QuantizedPlane {
        let entries = plane
            .entries
            .iter()
            .filter_map(|&(idx, v)| {
                let nv = predict_coeff(v, idx, from_q, to_q, is_luma);
                (nv != 0).then_some((idx, nv as i16))
            })
            .collect();
        QuantizedPlane { width: plane.width, height: plane.height, entries }
    }

    pub(super) fn encode(
        target: &EncodedSegment,
        reference: &EncodedSegment,
    ) -> Option<DeltaSegment> {
        if target.frames.len() != reference.frames.len() || target.frames.is_empty() {
            return None;
        }
        let mut frames = Vec::with_capacity(target.frames.len());
        for (t, r) in target.frames.iter().zip(&reference.frames) {
            frames.push(DeltaFrame {
                kind: t.kind,
                bytes: t.bytes,
                quantizer: t.quantizer,
                motion: t.motion,
                y: diff_plane(&t.y, &r.y, t.quantizer, r.quantizer, true)?,
                cb: diff_plane(&t.cb, &r.cb, t.quantizer, r.quantizer, false)?,
                cr: diff_plane(&t.cr, &r.cr, t.quantizer, r.quantizer, false)?,
            });
        }
        Some(DeltaSegment {
            start_index: target.start_index,
            reference_quantizer: reference.frames[0].quantizer,
            reference_digest: segment_digest(reference),
            frames,
        })
    }

    pub(super) fn reconstruct(delta: &DeltaSegment, reference: &EncodedSegment) -> EncodedSegment {
        assert_eq!(segment_digest(reference), delta.reference_digest);
        let frames = delta
            .frames
            .iter()
            .zip(&reference.frames)
            .map(|(d, r)| EncodedFrame {
                kind: d.kind,
                bytes: d.bytes,
                quantizer: d.quantizer,
                motion: d.motion,
                y: apply_plane(&d.y, &r.y, d.quantizer, r.quantizer, true),
                cb: apply_plane(&d.cb, &r.cb, d.quantizer, r.quantizer, false),
                cr: apply_plane(&d.cr, &r.cr, d.quantizer, r.quantizer, false),
            })
            .collect();
        EncodedSegment { start_index: delta.start_index, frames }
    }

    pub(super) fn transcode_segment(segment: &EncodedSegment, quantizer: u8) -> EncodedSegment {
        let frames = segment
            .frames
            .iter()
            .map(|f| {
                let y = requantize_plane(&f.y, f.quantizer, quantizer, true);
                let cb = requantize_plane(&f.cb, f.quantizer, quantizer, false);
                let cr = requantize_plane(&f.cr, f.quantizer, quantizer, false);
                let bits = plane_bits(&y) + plane_bits(&cb) + plane_bits(&cr);
                EncodedFrame {
                    kind: f.kind,
                    bytes: FRAME_HEADER_BYTES + (bits + 24).div_ceil(8),
                    quantizer,
                    motion: f.motion,
                    y,
                    cb,
                    cr,
                }
            })
            .collect();
        EncodedSegment { start_index: segment.start_index, frames }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecConfig, Encoder};
    use evr_projection::{ImageBuffer, Rgb};
    use proptest::prelude::*;

    fn textured(w: u32, h: u32, phase: f64) -> ImageBuffer {
        ImageBuffer::from_fn(w, h, |x, y| {
            let v = ((x as f64 * 0.4 + phase).sin() * 60.0
                + (y as f64 * 0.3 - phase).cos() * 60.0
                + 128.0) as u8;
            Rgb::new(v, v / 2 + 60, 255 - v)
        })
    }

    fn encode_segment(w: u32, h: u32, frames: usize, gop: u32, q: u8) -> EncodedSegment {
        let mut enc = Encoder::new(CodecConfig::new(gop, q));
        let frames = (0..frames)
            .map(|i| {
                if (i as u32).is_multiple_of(gop) {
                    enc.force_intra();
                }
                enc.encode_frame(&textured(w, h, i as f64 * 0.21))
            })
            .collect();
        EncodedSegment { start_index: 0, frames }
    }

    #[test]
    fn delta_reconstruct_is_bit_exact() {
        let top = encode_segment(48, 32, 6, 6, 8);
        let low = transcode_segment(&top, 24);
        let d = DeltaSegment::encode(&low, &top).expect("shape-compatible");
        assert_eq!(d.reconstruct(&top), low);
    }

    #[test]
    fn delta_of_transcoded_rung_is_smaller_than_full() {
        let top = encode_segment(64, 48, 8, 8, 8);
        let low = transcode_segment(&top, 28);
        let repr = SegmentRepr::delta_or_full(&low, &top);
        assert!(repr.is_delta(), "expected the delta to win");
        assert!(repr.bytes() < low.bytes());
        assert_eq!(repr.reconstruct(Some(&top)), low);
    }

    #[test]
    fn full_repr_reconstruct_is_identity() {
        let top = encode_segment(32, 32, 4, 4, 10);
        let repr = SegmentRepr::Full(top.clone());
        assert_eq!(repr.reconstruct(None), top);
        assert_eq!(repr.reconstruct(Some(&top)), top);
    }

    #[test]
    fn unrelated_segments_fall_back_to_full() {
        // A nearly-empty target against a dense unrelated reference: every
        // reference coefficient needs a cancelling residual, so the delta
        // costs far more than the independent encoding and the fallback
        // rule must kick in.
        let reference = encode_segment(64, 64, 1, 1, 2);
        let mut enc = Encoder::new(CodecConfig::new(1, 2));
        let flat = ImageBuffer::from_fn(64, 64, |_, _| Rgb::new(40, 90, 160));
        let target = EncodedSegment { start_index: 0, frames: vec![enc.encode_frame(&flat)] };
        let delta = DeltaSegment::encode(&target, &reference).expect("same shape");
        assert!(delta.bytes() > target.bytes(), "cancelling residuals must cost more");
        let repr = SegmentRepr::delta_or_full(&target, &reference);
        assert!(!repr.is_delta(), "unrelated content should not delta-win");
        assert_eq!(repr.reconstruct(None), target);
    }

    #[test]
    fn shape_mismatch_returns_none() {
        let a = encode_segment(32, 32, 4, 4, 10);
        let b = encode_segment(16, 16, 4, 4, 10);
        assert!(DeltaSegment::encode(&b, &a).is_none());
        let c = encode_segment(32, 32, 3, 3, 10);
        assert!(DeltaSegment::encode(&c, &a).is_none());
    }

    #[test]
    #[should_panic(expected = "wrong reference")]
    fn reconstruct_against_wrong_reference_panics() {
        let top = encode_segment(32, 32, 4, 4, 8);
        let other = encode_segment(32, 32, 4, 4, 9);
        let low = transcode_segment(&top, 20);
        let d = DeltaSegment::encode(&low, &top).expect("shape-compatible");
        let _ = d.reconstruct(&other);
    }

    #[test]
    fn transcode_preserves_structure() {
        let top = encode_segment(48, 32, 5, 5, 6);
        let low = transcode_segment(&top, 18);
        assert_eq!(low.frames.len(), top.frames.len());
        assert_eq!(low.start_index, top.start_index);
        assert_eq!(low.frames[0].kind, crate::codec::FrameKind::Intra);
        assert!(low.bytes() < top.bytes(), "coarser rung must be smaller");
    }

    /// A segment whose frame `i` is coded at `quantizers[i]`, as a rate
    /// controller that moves the quantiser between frames leaves it.
    fn rate_controlled(w: u32, h: u32, quantizers: &[u8]) -> EncodedSegment {
        let frames = quantizers
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                Encoder::new(CodecConfig::new(1, q)).encode_frame(&textured(w, h, i as f64 * 0.21))
            })
            .collect();
        EncodedSegment { start_index: 0, frames }
    }

    /// A random sparse plane: each of the `w`×`h` coefficients is present
    /// with probability `1 / spread`, valued anywhere in the i16 range or,
    /// with `extreme`, within 64 of ±`i16::MAX`.
    fn random_plane(rng: &mut u64, w: u32, h: u32, spread: u64, extreme: bool) -> QuantizedPlane {
        let mut entries = Vec::new();
        for idx in 0..w.div_ceil(8) * h.div_ceil(8) * 64 {
            let r = xorshift(rng);
            if !r.is_multiple_of(spread) {
                continue;
            }
            let v = (r >> 32) as i16;
            let v = if extreme { v.signum() * (i16::MAX - (v & 63)) } else { v };
            entries.push((idx, if v == 0 { 1 } else { v }));
        }
        QuantizedPlane { width: w, height: h, entries }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A segment of random sparse planes, frame `i` at `quantizers[i]`.
    fn random_segment(seed: u64, quantizers: &[u8], spread: u64, extreme: bool) -> EncodedSegment {
        let mut rng = seed | 1;
        let frames = quantizers
            .iter()
            .map(|&quantizer| EncodedFrame {
                kind: crate::codec::FrameKind::Intra,
                bytes: 0,
                quantizer,
                motion: (0, 0),
                y: random_plane(&mut rng, 16, 16, spread, extreme),
                cb: random_plane(&mut rng, 8, 8, spread, extreme),
                cr: random_plane(&mut rng, 8, 8, spread, extreme),
            })
            .collect();
        EncodedSegment { start_index: 0, frames }
    }

    /// Every fast kernel reproduces its oracle on `seg`: the transcode to
    /// `quantizer`, and the delta encode and reconstruct both ways between
    /// `seg` and that transcode and between `seg` and `other`.
    fn check_kernels(
        seg: &EncodedSegment,
        other: &EncodedSegment,
        quantizer: u8,
    ) -> Result<(), TestCaseError> {
        let rung = transcode_segment(seg, quantizer);
        prop_assert_eq!(&rung, &oracle::transcode_segment(seg, quantizer));
        for (target, reference) in [(&rung, seg), (seg, &rung), (other, seg), (seg, other)] {
            let delta = DeltaSegment::encode(target, reference);
            prop_assert_eq!(&delta, &oracle::encode(target, reference));
            if let Some(d) = delta {
                prop_assert_eq!(d.reconstruct(reference), oracle::reconstruct(&d, reference));
            }
        }
        Ok(())
    }

    /// A global index in block 3 whose position has `u + v = class`.
    fn index_of_class(class: usize) -> u32 {
        64 * 3 + (8 * class.saturating_sub(7) + class.min(7)) as u32
    }

    /// The step ratios, the rounding helper and the rescale — table
    /// lookup within ±64, the f64 expression beyond — against
    /// `predict_coeff` and `f64::round`, at every i16 value and every
    /// `u + v`, for the ladder pairs 15↔30 and 15↔22 — 15 → 30 is a
    /// ratio of exactly ½, so every odd coefficient is a tie.
    #[test]
    fn rescale_matches_predict_coeff_on_the_ladder_pairs() {
        for (from_q, to_q) in [(15, 30), (30, 15), (15, 22), (22, 15)] {
            let pair = StepRatios::new(from_q, to_q);
            for (is_luma, plane) in [(true, &pair.luma), (false, &pair.chroma)] {
                assert!(plane.table.is_some(), "{from_q}→{to_q} rescales through its table");
                for pos in 0..64 {
                    let (v, u) = (pos / 8, pos % 8);
                    let exact = quant_step(from_q, u, v, is_luma) / quant_step(to_q, u, v, is_luma);
                    let ratio = plane.ratios[u + v];
                    assert_eq!(ratio.to_bits(), exact.to_bits(), "{from_q}→{to_q} {pos}");
                }
                for (k, &ratio) in plane.ratios.iter().enumerate() {
                    let idx = index_of_class(k);
                    for value in i16::MIN..=i16::MAX {
                        let want = oracle::predict_coeff(value, idx, from_q, to_q, is_luma);
                        assert_eq!(plane.rescale(value, idx), want, "{from_q}→{to_q} {value} {k}");
                        let x = f64::from(value) * ratio;
                        let rounded = x.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16;
                        assert_eq!(round_to_i16(x), rounded, "{from_q}→{to_q} {value} {k}");
                    }
                }
            }
        }
    }

    /// Every table cell equals the f64 expression, for every quantiser
    /// pair of the codec's range, both plane kinds, every `u + v` and
    /// every value within the lookup bound; quantisers outside the range
    /// have no table.
    #[test]
    fn every_table_cell_matches_the_f64_expression() {
        for from_q in 1..=50 {
            for to_q in 1..=50 {
                let table = RescaleTable::of(from_q, to_q).expect("codec quantisers");
                for (is_luma, classes) in [(true, &table.luma), (false, &table.chroma)] {
                    for (k, cells) in classes.iter().enumerate() {
                        let idx = index_of_class(k);
                        for (value, &cell) in (-LOOKUP_BOUND..=LOOKUP_BOUND).zip(cells) {
                            let want = oracle::predict_coeff(value, idx, from_q, to_q, is_luma);
                            assert_eq!(
                                i32::from(cell),
                                want,
                                "{from_q}→{to_q} luma {is_luma} class {k} value {value}"
                            );
                        }
                    }
                }
            }
        }
        for (from_q, to_q) in [(0, 15), (15, 0), (51, 15), (15, 51), (255, 255)] {
            assert!(RescaleTable::of(from_q, to_q).is_none(), "{from_q}→{to_q}");
        }
    }

    #[test]
    fn kept_buffers_are_exact_capacity() {
        let top = encode_segment(48, 32, 6, 6, 15);
        let planes = |seg: &EncodedSegment| {
            seg.frames
                .iter()
                .flat_map(|f| [&f.y, &f.cb, &f.cr])
                .map(|p| p.entries.capacity() - p.entries.len())
                .sum::<usize>()
        };
        let residuals = |d: &DeltaSegment| {
            d.frames
                .iter()
                .flat_map(|f| [&f.y, &f.cb, &f.cr])
                .map(|p| p.residuals.capacity() - p.residuals.len())
                .sum::<usize>()
        };
        for q in [22, 30, 50] {
            let rung = transcode_segment(&top, q);
            assert_eq!(planes(&rung), 0, "transcode to q{q}");
            for (target, reference) in [(&rung, &top), (&top, &rung)] {
                let d = DeltaSegment::encode(target, reference).expect("same shape");
                assert_eq!(residuals(&d), 0, "delta at q{q}");
                assert_eq!(planes(&d.reconstruct(reference)), 0, "reconstruct at q{q}");
            }
            let upgrade = DeltaSegment::encode_upgrade(&top, q).expect("non-empty");
            assert_eq!(residuals(&upgrade), 0, "one-pass upgrade from q{q}");
            assert_eq!(planes(&upgrade.reconstruct(&rung)), 0, "upgrade reconstruct from q{q}");
        }
    }

    /// The one-pass upgrade equals the up-delta against the transcoded
    /// rung — reference digest included — and the oracle kernels' result.
    fn check_upgrade(top: &EncodedSegment, quantizer: u8) -> Result<(), TestCaseError> {
        let upgrade = DeltaSegment::encode_upgrade(top, quantizer);
        let rung = transcode_segment(top, quantizer);
        prop_assert_eq!(&upgrade, &DeltaSegment::encode(top, &rung));
        prop_assert_eq!(&upgrade, &oracle::encode(top, &oracle::transcode_segment(top, quantizer)));
        if let Some(d) = upgrade {
            prop_assert_eq!(d.reference_digest, segment_digest(&rung));
            prop_assert_eq!(&d.reconstruct(&rung), top);
        }
        Ok(())
    }

    #[test]
    fn upgrade_matches_the_transcode_delta_on_degenerate_segments() {
        let empty = EncodedSegment { start_index: 4, frames: Vec::new() };
        assert_eq!(DeltaSegment::encode_upgrade(&empty, 30), None);
        check_upgrade(&empty, 30).unwrap();
        let one = encode_segment(24, 16, 1, 1, 15);
        let mut planes_empty = one.clone();
        for f in &mut planes_empty.frames {
            for plane in [&mut f.y, &mut f.cb, &mut f.cr] {
                plane.entries.clear();
            }
        }
        for q in [1, 15, 22, 30, 50] {
            check_upgrade(&one, q).unwrap();
            check_upgrade(&planes_empty, q).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "quantizer must be in 1..=50")]
    fn upgrade_rejects_quantizers_outside_the_codec_range() {
        let _ = DeltaSegment::encode_upgrade(&encode_segment(16, 16, 1, 1, 15), 0);
    }

    /// Frames coded at a quantiser outside `1..=50` have no table: every
    /// kernel falls back to the f64 expression (an infinite or zero ratio
    /// at quantiser 0), matches its oracle and does not panic.
    #[test]
    fn quantizers_outside_the_codec_range_use_the_expression() {
        let seg = random_segment(0x5eed, &[0, 51, 255, 15, 0], 3, false);
        let other = random_segment(0xfeed, &[15, 0, 60, 200, 51], 3, true);
        assert!(StepRatios::new(0, 30).luma.table.is_none());
        assert!(StepRatios::new(30, 51).chroma.table.is_none());
        for q in [1, 15, 22, 30, 50] {
            check_kernels(&seg, &other, q).unwrap();
            check_kernels(&other, &seg, q).unwrap();
            check_upgrade(&seg, q).unwrap();
            check_upgrade(&other, q).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "quantizer must be in 1..=50")]
    fn transcode_rejects_quantizers_outside_the_codec_range() {
        let _ = transcode_segment(&encode_segment(16, 16, 1, 1, 15), 51);
    }

    #[test]
    fn fast_kernels_match_the_oracles_on_degenerate_segments() {
        // Single frame, empty planes and a shape mismatch.
        let one = encode_segment(24, 16, 1, 1, 15);
        check_kernels(&one, &encode_segment(24, 16, 1, 1, 40), 30).unwrap();
        let mut empty = one.clone();
        for f in &mut empty.frames {
            for plane in [&mut f.y, &mut f.cb, &mut f.cr] {
                plane.entries.clear();
            }
        }
        check_kernels(&empty, &one, 22).unwrap();
        check_kernels(&one, &empty, 22).unwrap();
        let small = encode_segment(16, 16, 1, 1, 15);
        assert_eq!(DeltaSegment::encode(&small, &one), None);
        assert_eq!(oracle::encode(&small, &one), None);
        let mut chroma_mismatch = one.clone();
        chroma_mismatch.frames[0].cr.width += 8;
        assert_eq!(DeltaSegment::encode(&chroma_mismatch, &one), None);
        assert_eq!(oracle::encode(&chroma_mismatch, &one), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fast kernels equal their oracles for quantiser pairs across the
        /// codec's range, coarser and finer, on real encodings.
        #[test]
        fn prop_fast_kernels_match_oracles(
            from_q in 1u8..=50,
            to_q in 1u8..=50,
            other_q in 1u8..=50,
            frames in 1usize..5,
            gop in 1u32..5,
        ) {
            let seg = encode_segment(24, 16, frames, gop, from_q);
            check_kernels(&seg, &encode_segment(24, 16, frames, gop, other_q), to_q)?;
        }

        /// The same when every frame carries its own quantiser, as under
        /// rate control: runs of a repeated pair reuse the ratio table,
        /// every change rebuilds it.
        #[test]
        fn prop_fast_kernels_match_oracles_under_rate_control(
            runs in collection::vec((1u8..=50, 1usize..4), 1..4),
            shift in 0usize..3,
            to_q in 1u8..=50,
        ) {
            let qs: Vec<u8> = runs.iter().flat_map(|&(q, n)| std::iter::repeat_n(q, n)).collect();
            let mut other_qs = qs.clone();
            other_qs.rotate_left(shift % qs.len());
            check_kernels(&rate_controlled(16, 16, &qs), &rate_controlled(16, 16, &other_qs), to_q)?;
        }

        /// Random sparse planes with unrelated index sets and values across
        /// the whole i16 range or near ±`i16::MAX`, where finer targets hit
        /// the clamp.
        #[test]
        fn prop_fast_kernels_match_oracles_on_random_planes(
            seed in any::<u64>(),
            quantizers in collection::vec(1u8..=50, 1..4),
            to_q in 1u8..=50,
            spread in 1u64..6,
            extreme in any::<bool>(),
        ) {
            let seg = random_segment(seed, &quantizers, spread, extreme);
            let other = random_segment(seed ^ 0x9e37_79b9, &quantizers, spread, !extreme);
            check_kernels(&seg, &other, to_q)?;
        }

        /// Delta encode→reconstruct is bit-exact for arbitrary quantiser
        /// pairs, GOP structures and degenerate segments (single-frame,
        /// all-intra).
        #[test]
        fn prop_delta_roundtrip_bit_exact(
            ref_q in 1u8..20,
            coarsen in 0u8..31,
            frames in 1usize..7,
            gop in 1u32..8,
            phase in 0u32..8,
        ) {
            let top = encode_segment(40, 24, frames, gop, ref_q);
            let tgt_q = (ref_q + coarsen).min(50);
            let low = transcode_segment(&top, tgt_q);
            let d = DeltaSegment::encode(&low, &top).expect("same shape");
            prop_assert_eq!(d.reconstruct(&top), low.clone());
            // The fallback-full repr must reconstruct to the identity, and
            // delta_or_full must always round-trip regardless of which
            // representation won.
            let repr = SegmentRepr::delta_or_full(&low, &top);
            prop_assert_eq!(repr.reconstruct(Some(&top)), low);
            let _ = phase; // reserved: varies the strategy space only
        }

        /// The one-pass upgrade equals the up-delta against the
        /// transcoded rung on real encodings, with the rung coarser,
        /// finer or at the frames' own quantiser.
        #[test]
        fn prop_upgrade_matches_the_transcode_delta(
            from_q in 1u8..=50,
            to_q in 1u8..=50,
            frames in 1usize..5,
            gop in 1u32..5,
        ) {
            let seg = encode_segment(24, 16, frames, gop, from_q);
            check_upgrade(&seg, to_q)?;
            check_upgrade(&seg, from_q)?;
        }

        /// The same under rate control, where every frame carries its own
        /// quantiser and the rung's quantiser may equal some of them.
        #[test]
        fn prop_upgrade_matches_the_transcode_delta_under_rate_control(
            runs in collection::vec((1u8..=50, 1usize..4), 1..4),
            to_q in 1u8..=50,
        ) {
            let qs: Vec<u8> = runs.iter().flat_map(|&(q, n)| std::iter::repeat_n(q, n)).collect();
            let seg = rate_controlled(16, 16, &qs);
            check_upgrade(&seg, to_q)?;
            check_upgrade(&seg, qs[0])?;
        }

        /// And on random sparse planes, values across the whole i16 range
        /// or near ±`i16::MAX`, where the lookup falls back to the
        /// expression and the residuals hit the clamp.
        #[test]
        fn prop_upgrade_matches_the_transcode_delta_on_random_planes(
            seed in any::<u64>(),
            quantizers in collection::vec(1u8..=50, 1..4),
            to_q in 1u8..=50,
            spread in 1u64..6,
            extreme in any::<bool>(),
        ) {
            let seg = random_segment(seed, &quantizers, spread, extreme);
            check_upgrade(&seg, to_q)?;
            check_upgrade(&seg, quantizers[0])?;
        }

        /// A rung transcoded from a segment has an empty delta against
        /// it, at every quantiser of the codec's range and so at every
        /// rung of any ladder: the delta's prediction is the transcode's
        /// own requantisation. Reconstructing it takes the empty-residual
        /// path.
        #[test]
        fn prop_down_deltas_of_transcoded_rungs_are_empty(
            seed in any::<u64>(),
            runs in collection::vec((1u8..=50, 1usize..3), 1..3),
            spread in 1u64..6,
        ) {
            let qs: Vec<u8> = runs.iter().flat_map(|&(q, n)| std::iter::repeat_n(q, n)).collect();
            for seg in [rate_controlled(16, 16, &qs), random_segment(seed, &qs, spread, false)] {
                for q in 1..=50 {
                    let rung = transcode_segment(&seg, q);
                    let d = DeltaSegment::encode(&rung, &seg).expect("same shape");
                    prop_assert_eq!(d.residual_coeffs(), 0, "q{}", q);
                    prop_assert_eq!(d.reconstruct(&seg), rung);
                }
            }
        }

        /// A delta against the segment itself is all-zero residuals and
        /// reconstructs exactly.
        #[test]
        fn prop_self_delta_is_empty(q in 1u8..30, frames in 1usize..5) {
            let seg = encode_segment(24, 24, frames, frames as u32, q);
            let d = DeltaSegment::encode(&seg, &seg).expect("same shape");
            prop_assert_eq!(d.residual_coeffs(), 0);
            prop_assert_eq!(d.reconstruct(&seg), seg);
        }
    }
}
