//! Percentiles, a stable digest and a seeded random source.

use std::fmt::{self, Write as _};

/// Percentiles a tail can be reported at, lowest first.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest ladder percentile, not above `want`, that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n as f64 * (1.0 - p) >= MIN_BEYOND as f64 - 1e-9)
}

/// A latency distribution: median and tail, with the sample count and
/// the percentile the tail was actually read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// The value at `tail_p`.
    pub tail: f64,
    /// The percentile `tail` was read at: the one asked for, or the
    /// highest below it with enough samples beyond it, or the median
    /// when even that has too few.
    pub tail_p: f64,
    /// The highest ladder percentile with enough samples beyond it, and
    /// its value — the most extreme tail these samples support.
    pub top_p: f64,
    pub top: f64,
    pub mean: f64,
}

impl Dist {
    /// Summarises `samples`, reading the tail at `want` (or the highest
    /// percentile below it that the sample count supports).
    pub fn of(mut samples: Vec<f64>, want: f64) -> Dist {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let max = samples.last().copied().unwrap_or(0.0);
        // Too few samples for any percentile: the tail reads the median,
        // the one point that does not rest on a handful of extremes.
        let tail_p = tail_percentile(n, want).unwrap_or(0.5);
        let tail = quantile(&samples, tail_p);
        let (top_p, top) = match tail_percentile(n, 1.0) {
            Some(p) => (p, quantile(&samples, p)),
            None => (1.0, max),
        };
        let mean = if n == 0 { 0.0 } else { samples.iter().sum::<f64>() / n as f64 };
        Dist { n, p50: quantile(&samples, 0.5), tail, tail_p, top_p, top, mean }
    }

    /// One human-readable line: median, tail and sample count.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, {} {:.4} {unit}, {} {:.4} {unit} (n = {})",
            self.p50,
            pct_label(self.tail_p),
            self.tail,
            pct_label(self.top_p),
            self.top,
            self.n
        )
    }
}

/// Summarises each window of samples on its own and reports, across
/// windows, the median of their medians and of their tails: one stall
/// inflates one window's tail, not the result. `n` counts every sample;
/// `tail_p` is the lowest percentile any window's tail was read at.
pub fn median_of_windows(windows: &[Vec<f64>], want: f64) -> Dist {
    let dists: Vec<Dist> = windows.iter().map(|w| Dist::of(w.clone(), want)).collect();
    let pick = |f: fn(&Dist) -> f64| median(&dists.iter().map(f).collect::<Vec<_>>());
    let n = dists.iter().map(|d| d.n).sum();
    let lowest = |f: fn(&Dist) -> f64| dists.iter().map(f).fold(1.0, f64::min);
    Dist {
        n,
        p50: pick(|d| d.p50),
        tail: pick(|d| d.tail),
        tail_p: lowest(|d| d.tail_p),
        top: pick(|d| d.top),
        top_p: lowest(|d| d.top_p),
        mean: dists.iter().map(|d| d.mean * d.n as f64).sum::<f64>() / n.max(1) as f64,
    }
}

fn pct_label(p: f64) -> String {
    if p >= 1.0 {
        "max".to_string()
    } else {
        format!("p{}", (p * 1000.0).round() / 10.0)
    }
}

/// Median of a small sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// FNV-1a over text, fed through `fmt::Write` so `Debug` output of
/// large values is digested without being materialised.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl Digest {
    /// Folds the `Debug` rendering of `value` into the digest.
    pub fn feed(&mut self, value: &impl fmt::Debug) {
        write!(self, "{value:?};").expect("digest writes never fail");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: a small seeded generator, so every input the benchmark
/// draws is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE7C_4A11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given rate (Poisson inter-arrival gap).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf-distributed indices over `n` items with exponent `s`: item 0
/// is the most popular. The popularity order is fixed, so the seed moves
/// which requests are drawn but not which items are hot.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one item");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only one.
        assert_eq!(tail_percentile(1000, 1.0), Some(0.99));
        assert_eq!(tail_percentile(10_000, 1.0), Some(0.999));
        assert_eq!(tail_percentile(999, 1.0), Some(0.9));
        assert_eq!(tail_percentile(100, 0.99), Some(0.9));
        assert_eq!(tail_percentile(20, 0.99), Some(0.5));
        assert_eq!(tail_percentile(19, 0.99), None);
        // Never above the percentile asked for.
        assert_eq!(tail_percentile(1_000_000, 0.99), Some(0.99));
    }

    #[test]
    fn dist_falls_back_to_the_median_on_small_samples() {
        let d = Dist::of(vec![3.0, 1.0, 2.0], 0.99);
        assert_eq!((d.n, d.p50, d.tail, d.tail_p), (3, 2.0, 2.0, 0.5));
        assert_eq!((d.top_p, d.top), (1.0, 3.0));
        let d = Dist::of((1..=1000).map(f64::from).collect(), 0.99);
        assert_eq!((d.tail_p, d.tail), (0.99, 990.0));
        assert_eq!(d.p50, 500.0);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_median_of_windows() {
        let calm: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled.iter_mut().skip(900).for_each(|v| *v *= 100.0);
        let d = median_of_windows(&[calm.clone(), stalled, calm], 0.99);
        assert_eq!((d.n, d.p50, d.tail, d.tail_p), (3000, 500.0, 990.0, 0.99));
    }

    #[test]
    fn zipf_is_skewed_towards_the_first_items() {
        let mut rng = Rng::new(7);
        let z = Zipf::new(50, 1.1);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 20_000 / 5, "hottest key drew {}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
    }
}
