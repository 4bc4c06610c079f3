//! Adaptive-bitrate streaming over a constrained, time-varying link.
//!
//! The paper evaluates under an uncongested 300 Mbps WiFi link (§8.2);
//! this module asks the follow-on question its bandwidth results imply:
//! on a *constrained* link (cellular-class), how much does EVR's smaller
//! FOV traffic help playback robustness? It implements the standard
//! buffer-based client loop — throughput-EWMA rung selection with a
//! safety factor, stall accounting — over real per-rung segment sizes
//! from [`evr_sas::ladder`].

use serde::{Deserialize, Serialize};

/// A piecewise-constant bandwidth-over-time trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTrace {
    /// `(start time s, bits/s)` breakpoints, time-ascending; the first
    /// entry's rate also applies before its time.
    points: Vec<(f64, f64)>,
}

impl BandwidthTrace {
    /// A constant-rate link.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not positive.
    pub fn constant(bps: f64) -> Self {
        assert!(bps > 0.0, "bandwidth must be positive");
        BandwidthTrace { points: vec![(0.0, bps)] }
    }

    /// Builds a trace from breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if empty, unsorted, or any rate is non-positive.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "trace needs at least one point");
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0), "breakpoints must ascend");
        assert!(points.iter().all(|(_, bps)| *bps > 0.0), "rates must be positive");
        BandwidthTrace { points }
    }

    /// A link that alternates between `high_bps` and `low_bps` every
    /// `period_s/2` seconds — the classic congestion sawtooth.
    pub fn square_wave(high_bps: f64, low_bps: f64, period_s: f64, total_s: f64) -> Self {
        assert!(period_s > 0.0 && total_s > 0.0, "periods must be positive");
        let mut points = Vec::new();
        let mut t = 0.0;
        let mut high = true;
        while t < total_s {
            points.push((t, if high { high_bps } else { low_bps }));
            high = !high;
            t += period_s / 2.0;
        }
        BandwidthTrace::from_points(points)
    }

    /// The rate at time `t`, bits/s.
    pub fn bps_at(&self, t: f64) -> f64 {
        match self.points.iter().rev().find(|(pt, _)| *pt <= t) {
            Some((_, bps)) => *bps,
            None => self.points[0].1,
        }
    }

    /// Time to download `bytes` starting at `t` (integrating across
    /// breakpoints).
    pub fn download_time(&self, mut t: f64, bytes: u64) -> f64 {
        let mut remaining_bits = bytes as f64 * 8.0;
        let start = t;
        loop {
            let rate = self.bps_at(t);
            let next_bp =
                self.points.iter().map(|(pt, _)| *pt).find(|pt| *pt > t).unwrap_or(f64::INFINITY);
            let window = next_bp - t;
            let can = rate * window;
            if remaining_bits <= can {
                return t + remaining_bits / rate - start;
            }
            remaining_bits -= can;
            t = next_bp;
        }
    }
}

/// The rung-selection policy: throughput EWMA with a safety margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbrPolicy {
    /// Fraction of estimated throughput the chosen rung may consume.
    pub safety: f64,
    /// EWMA smoothing factor for throughput estimates, `[0, 1)` (0 = use
    /// the last sample only).
    pub smoothing: f64,
}

impl Default for AbrPolicy {
    fn default() -> Self {
        AbrPolicy { safety: 0.8, smoothing: 0.6 }
    }
}

/// Result of one ABR playback simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AbrOutcome {
    /// Total stall (rebuffering) time, seconds.
    pub stall_time_s: f64,
    /// Stall events.
    pub stalls: u64,
    /// Mean selected rung (0 = coarsest).
    pub mean_rung: f64,
    /// Rung switches.
    pub switches: u64,
    /// Total bytes downloaded.
    pub bytes: u64,
}

/// Simulates buffer-based streaming of `segment_ladder` (per segment, the
/// byte size of each rung, coarsest first) over `link`.
///
/// The client starts playing after the first segment arrives, keeps at
/// most a few segments buffered, estimates throughput from each
/// download, and picks the highest rung whose projected download rate
/// fits within `policy.safety` of the estimate.
///
/// # Panics
///
/// Panics if the ladder is empty or ragged.
pub fn simulate_abr(
    segment_ladder: &[Vec<u64>],
    segment_duration_s: f64,
    link: &BandwidthTrace,
    policy: AbrPolicy,
) -> AbrOutcome {
    assert!(!segment_ladder.is_empty(), "ladder must contain segments");
    let rungs = segment_ladder[0].len();
    assert!(rungs > 0, "segments need at least one rung");
    assert!(segment_ladder.iter().all(|s| s.len() == rungs), "ragged ladder");

    let mut wall = 0.0f64; // wall-clock time
    let mut buffer = 0.0f64; // seconds of video buffered
    let mut started = false; // playback begins after the first segment
                             // No throughput sample exists before the first download completes: a
                             // real client cannot peek at the link's t=0 rate, so it opens at the
                             // coarsest rung and lets the first measured download seed the EWMA.
    let mut throughput: Option<f64> = None;
    let mut rung = 0usize;
    let mut outcome =
        AbrOutcome { stall_time_s: 0.0, stalls: 0, mean_rung: 0.0, switches: 0, bytes: 0 };

    for seg in segment_ladder {
        // Pick the highest rung that fits the throughput estimate.
        let pick = match throughput {
            None => 0,
            Some(estimate) => {
                let budget_bps = estimate * policy.safety;
                (0..rungs)
                    .rev()
                    .find(|&r| seg[r] as f64 * 8.0 / segment_duration_s <= budget_bps)
                    .unwrap_or(0)
            }
        };
        if pick != rung {
            outcome.switches += 1;
            rung = pick;
        }
        outcome.mean_rung += rung as f64;
        let bytes = seg[rung];
        outcome.bytes += bytes;

        let dl = link.download_time(wall, bytes);
        wall += dl;
        if started {
            // Playback consumed `dl` seconds of buffer meanwhile.
            buffer -= dl;
            if buffer < 0.0 {
                outcome.stall_time_s += -buffer;
                outcome.stalls += 1;
                buffer = 0.0;
            }
        } else {
            // Startup: playback begins once the first segment is in; the
            // join delay is not a stall.
            started = true;
        }
        buffer += segment_duration_s;
        // Keep at most 3 segments ahead: idle (don't download) otherwise.
        let cap = 3.0 * segment_duration_s;
        if buffer > cap {
            wall += buffer - cap;
            buffer = cap;
        }
        // Throughput sample from this download; the first sample seeds
        // the estimator outright.
        let sample = bytes as f64 * 8.0 / dl.max(1e-9);
        throughput = Some(match throughput {
            None => sample,
            Some(estimate) => policy.smoothing * estimate + (1.0 - policy.smoothing) * sample,
        });
    }
    outcome.mean_rung /= segment_ladder.len() as f64;
    outcome
}

/// One segment's per-tile rung selection from [`allocate_tile_rungs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAllocation {
    /// Chosen rung index per tile (0 = coarsest), row-major grid order.
    pub rungs: Vec<usize>,
    /// Total wire bytes of the selection.
    pub total_bytes: u64,
}

/// How much an upgrade on a peripheral tile is worth relative to the
/// same solid angle of visible content: the viewer only sees it if the
/// head moves that way mid-segment.
const PERIPHERAL_VALUE: f64 = 0.35;

/// Allocates a per-segment byte budget across tiles — the S-PSNR-style
/// spherically-weighted rate allocator of the `T`/`T+H` variants.
///
/// Every tile starts at the coarsest rung (the base layer; panoramic
/// playback needs *something* everywhere). Upgrades are then granted
/// greedily by quality value per marginal byte: a tile's value is its
/// spherical solid-angle weight ([`evr_sas::TileGrid::tile_weights`])
/// times a viewport factor (visible `1.0`, peripheral
/// `PERIPHERAL_VALUE`, out-of-view never upgrades), and each step
/// picks the affordable upgrade with the best `value / marginal-bytes`
/// ratio (ties to the lowest tile index). Visible tiles may climb to the
/// top rung, peripheral tiles to the middle of the ladder.
///
/// The returned total never exceeds `budget_bytes` as long as the base
/// layer itself fits; if even the base layer exceeds the budget, the
/// base layer is returned unchanged (the caller sees the overrun in
/// `total_bytes` and stalls accordingly, exactly like a too-slow link).
///
/// # Panics
///
/// Panics if the inputs are empty, ragged, or of mismatched lengths.
pub fn allocate_tile_rungs(
    tile_rung_bytes: &[Vec<u64>],
    weights: &[f64],
    classes: &[evr_sas::TileClass],
    budget_bytes: u64,
) -> TileAllocation {
    use evr_sas::TileClass;
    assert!(!tile_rung_bytes.is_empty(), "allocation needs at least one tile");
    let rung_count = tile_rung_bytes[0].len();
    assert!(rung_count > 0, "tiles need at least one rung");
    assert!(tile_rung_bytes.iter().all(|t| t.len() == rung_count), "ragged rung matrix");
    assert_eq!(tile_rung_bytes.len(), weights.len(), "weights must match tiles");
    assert_eq!(tile_rung_bytes.len(), classes.len(), "classes must match tiles");

    let caps: Vec<usize> = classes
        .iter()
        .map(|c| match c {
            TileClass::Visible => rung_count - 1,
            TileClass::Peripheral => (rung_count - 1) / 2,
            TileClass::OutOfView => 0,
        })
        .collect();
    let values: Vec<f64> = classes
        .iter()
        .zip(weights)
        .map(|(c, w)| match c {
            TileClass::Visible => *w,
            TileClass::Peripheral => *w * PERIPHERAL_VALUE,
            TileClass::OutOfView => 0.0,
        })
        .collect();

    let mut rungs = vec![0usize; tile_rung_bytes.len()];
    let mut total: u64 = tile_rung_bytes.iter().map(|t| t[0]).sum();
    loop {
        let mut best: Option<(usize, u64, f64)> = None; // (tile, new_total, score)
        for (t, &r) in rungs.iter().enumerate() {
            if r >= caps[t] {
                continue;
            }
            // Marginal bytes may be negative: the toy codec (like real
            // DASH packagers) occasionally inverts neighbouring rungs.
            let new_total = (total as i128 - tile_rung_bytes[t][r] as i128
                + tile_rung_bytes[t][r + 1] as i128)
                .max(0) as u64;
            if new_total > budget_bytes {
                continue;
            }
            let marginal = tile_rung_bytes[t][r + 1].saturating_sub(tile_rung_bytes[t][r]).max(1);
            let score = values[t] / marginal as f64;
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((t, new_total, score));
            }
        }
        let Some((t, new_total, _)) = best else { break };
        rungs[t] += 1;
        total = new_total;
    }
    TileAllocation { rungs, total_bytes: total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evr_sas::TileClass;

    /// 10 segments of 1 s whose rungs cost 1 / 2 / 4 Mbit each.
    fn ladder() -> Vec<Vec<u64>> {
        (0..10).map(|_| vec![125_000, 250_000, 500_000]).collect()
    }

    #[test]
    fn fat_link_picks_the_top_rung_without_stalls() {
        let out =
            simulate_abr(&ladder(), 1.0, &BandwidthTrace::constant(50e6), AbrPolicy::default());
        assert_eq!(out.stalls, 0);
        // The first segment opens at the coarsest rung (no sample yet);
        // every later one rides the top, so the mean over 10 is exactly 1.8.
        assert!(out.mean_rung >= 1.8, "mean rung {}", out.mean_rung);
    }

    #[test]
    fn fast_start_link_opens_conservatively() {
        // A link that opens fat and collapses half a segment in: an
        // estimator warm-started from `link.bps_at(0.0)` (an oracle peek a
        // real client cannot make) would grab the top rung immediately and
        // stall into the collapse. The client must open at the coarsest
        // rung until it has a measured sample.
        let link = BandwidthTrace::square_wave(50e6, 1.0e6, 1.0, 10.0);
        let single = vec![vec![125_000, 250_000, 500_000]];
        let out = simulate_abr(&single, 1.0, &link, AbrPolicy::default());
        assert_eq!(out.mean_rung, 0.0, "first pick must be the coarsest rung");
        assert_eq!(out.bytes, 125_000);
        assert_eq!(out.stalls, 0);
        // With more segments the estimator warms up from real samples and
        // still climbs off the floor once the link allows it.
        let long: Vec<Vec<u64>> = (0..20).map(|_| vec![125_000, 250_000, 500_000]).collect();
        let warmed = simulate_abr(&long, 1.0, &link, AbrPolicy::default());
        assert!(warmed.mean_rung > 0.0, "estimator never warmed up");
    }

    #[test]
    fn thin_link_downshifts_instead_of_stalling() {
        // 1.5 Mbps link: only the bottom rung (1 Mbit/s) fits.
        let out =
            simulate_abr(&ladder(), 1.0, &BandwidthTrace::constant(1.5e6), AbrPolicy::default());
        assert!(out.mean_rung < 0.5, "mean rung {}", out.mean_rung);
        assert!(out.stall_time_s < 0.5, "stall {}", out.stall_time_s);
    }

    #[test]
    fn fluctuating_link_causes_switches() {
        // 10-second phases between a fat and a sub-rung-0 link, with a
        // reactive estimator: the client must shift down and back up.
        let link = BandwidthTrace::square_wave(20e6, 1.0e6, 20.0, 100.0);
        let long: Vec<Vec<u64>> = (0..60).map(|_| vec![125_000, 250_000, 500_000]).collect();
        let policy = AbrPolicy { safety: 0.8, smoothing: 0.3 };
        let out = simulate_abr(&long, 1.0, &link, policy);
        assert!(out.switches >= 3, "switches {}", out.switches);
        // It oscillates between rungs rather than pinning to one.
        assert!(out.mean_rung > 0.2 && out.mean_rung < 1.9, "mean rung {}", out.mean_rung);
    }

    #[test]
    fn smaller_segments_stall_less_on_the_same_link() {
        // Halving every size (EVR's FOV streams vs originals) must not
        // make things worse on a borderline link.
        let link = BandwidthTrace::square_wave(3e6, 0.8e6, 6.0, 30.0);
        let full = simulate_abr(&ladder(), 1.0, &link, AbrPolicy::default());
        let halved: Vec<Vec<u64>> =
            ladder().iter().map(|s| s.iter().map(|b| b / 2).collect()).collect();
        let small = simulate_abr(&halved, 1.0, &link, AbrPolicy::default());
        assert!(small.stall_time_s <= full.stall_time_s + 1e-9);
        assert!(small.mean_rung >= full.mean_rung);
    }

    #[test]
    fn download_time_integrates_across_breakpoints() {
        // 1 Mbps for 1 s, then 9 Mbps: 2 Mbit takes 1 s + (1 Mbit / 9 Mbps).
        let link = BandwidthTrace::from_points(vec![(0.0, 1e6), (1.0, 9e6)]);
        let t = link.download_time(0.0, 250_000);
        assert!((t - (1.0 + 1.0 / 9.0)).abs() < 1e-9, "{t}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_ladder_panics() {
        let bad = vec![vec![1, 2], vec![1]];
        let _ = simulate_abr(&bad, 1.0, &BandwidthTrace::constant(1e6), AbrPolicy::default());
    }

    /// A deterministic xorshift for property-style sweeps (no external
    /// RNG crates in this workspace).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_matrix(seed: u64, tiles: usize, rungs: usize) -> Vec<Vec<u64>> {
        let mut s = seed.max(1);
        (0..tiles)
            .map(|_| (0..rungs).map(|r| 500 + xorshift(&mut s) % 2_000 * (r as u64 + 1)).collect())
            .collect()
    }

    #[test]
    fn allocation_never_exceeds_budget_when_base_fits() {
        let grid = evr_sas::TileGrid::default();
        let weights = grid.tile_weights();
        for seed in 1..50u64 {
            let matrix = random_matrix(seed, grid.len(), 3);
            let base: u64 = matrix.iter().map(|t| t[0]).sum();
            let top: u64 = matrix.iter().map(|t| t[2]).sum();
            let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
            let budget = base + xorshift(&mut s) % (top - base + 1);
            let classes: Vec<TileClass> = (0..grid.len())
                .map(|t| match (t + seed as usize) % 3 {
                    0 => TileClass::Visible,
                    1 => TileClass::Peripheral,
                    _ => TileClass::OutOfView,
                })
                .collect();
            let alloc = allocate_tile_rungs(&matrix, &weights, &classes, budget);
            assert!(
                alloc.total_bytes <= budget,
                "seed {seed}: total {} > budget {budget}",
                alloc.total_bytes
            );
            let recomputed: u64 = matrix.iter().zip(&alloc.rungs).map(|(t, &r)| t[r]).sum();
            assert_eq!(alloc.total_bytes, recomputed, "seed {seed}: total out of sync");
        }
    }

    #[test]
    fn class_caps_bound_every_tile() {
        let grid = evr_sas::TileGrid::default();
        let weights = grid.tile_weights();
        let matrix = random_matrix(7, grid.len(), 3);
        let classes: Vec<TileClass> = (0..grid.len())
            .map(|t| match t % 3 {
                0 => TileClass::Visible,
                1 => TileClass::Peripheral,
                _ => TileClass::OutOfView,
            })
            .collect();
        let alloc = allocate_tile_rungs(&matrix, &weights, &classes, u64::MAX);
        for (t, (&r, c)) in alloc.rungs.iter().zip(&classes).enumerate() {
            let cap = match c {
                TileClass::Visible => 2,
                TileClass::Peripheral => 1,
                TileClass::OutOfView => 0,
            };
            assert_eq!(r, cap, "tile {t} ({c:?}) under unlimited budget");
        }
    }

    #[test]
    fn overrun_base_layer_is_returned_unchanged() {
        let matrix = vec![vec![100, 200], vec![100, 200]];
        let weights = vec![1.0, 1.0];
        let classes = vec![TileClass::Visible, TileClass::Visible];
        let alloc = allocate_tile_rungs(&matrix, &weights, &classes, 50);
        assert_eq!(alloc.rungs, vec![0, 0]);
        assert_eq!(alloc.total_bytes, 200);
    }

    #[test]
    fn equal_cost_upgrades_favour_the_larger_solid_angle() {
        // Two visible tiles, identical rung costs, one polar (small
        // weight) and one equatorial (large weight): with budget for one
        // upgrade, the equatorial tile gets it.
        let grid = evr_sas::TileGrid::default();
        let weights = grid.tile_weights();
        let polar = 0usize; // row 0
        let equatorial = (grid.cols + 1) as usize; // row 1
        assert!(weights[equatorial] > weights[polar]);
        let mut matrix = vec![vec![0u64, 0]; grid.len()];
        matrix[polar] = vec![100, 200];
        matrix[equatorial] = vec![100, 200];
        let mut classes = vec![TileClass::OutOfView; grid.len()];
        classes[polar] = TileClass::Visible;
        classes[equatorial] = TileClass::Visible;
        let alloc = allocate_tile_rungs(&matrix, &weights, &classes, 300);
        assert_eq!(alloc.rungs[equatorial], 1);
        assert_eq!(alloc.rungs[polar], 0);
    }
}
