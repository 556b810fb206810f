//! Sample statistics and output hashing.

/// Samples a percentile must leave beyond it before it is reported: a p95
/// read from fewer than ten slower samples is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it. Infinite samples
/// (failed requests) sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Median and quartiles of a sample, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` does (the exclusive method, which
/// extrapolates for tiny samples), so the figures printed here are the
/// ones a spread check over the same values reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut data = samples.to_vec();
        data.sort_by(f64::total_cmp);
        let ld = data.len();
        if ld == 1 {
            let v = data[0];
            return Some(Summary { median: v, q1: v, q3: v, n: ld });
        }
        let quartile = |i: i64| {
            let (ld, m) = (ld as i64, ld as i64 + 1);
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = i * m - j * 4;
            let (a, b) = (data[j as usize - 1], data[j as usize]);
            (a * (4 - delta) as f64 + b * delta as f64) / 4.0
        };
        Some(Summary { median: quartile(2), q1: quartile(1), q3: quartile(3), n: ld })
    }

    /// The same summary with every figure mapped through `f` (monotone
    /// decreasing maps swap the quartiles back into order).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary { median: f(self.median), q1: a.min(b), q3: a.max(b), n: self.n }
    }
}

/// Incremental FNV-1a over 64-bit words, the hash `bench_scale` and
/// `bench_serve` use for their label and decision streams.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the seed → stream generator behind every choice the
/// benchmark makes itself (which transfer rows, which query records, which
/// ids an update drops).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank ⌈0.95·200⌉ = 190, with exactly ten samples beyond it.
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        // Order of the input does not matter.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), Some(190.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // Rank ⌈0.95·199⌉ = 190 leaves only nine samples beyond.
        assert_eq!(percentile(&samples, 95.0), None);
        assert_eq!(percentile(&samples[..15], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failed_requests_push_the_tail_to_infinity() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        for s in samples.iter_mut().skip(185) {
            *s = f64::INFINITY;
        }
        assert_eq!(percentile(&samples, 95.0), Some(f64::INFINITY));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
    }

    #[test]
    fn summary_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
        let inv = Summary::of(&[1.0, 2.0, 4.0]).unwrap().map(|v| 4.0 / v);
        assert_eq!((inv.q1, inv.median, inv.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn fnv_matches_bench_scale() {
        // bench_scale folds one word per label: 1 = match, 0 = non-match.
        let mut h = Fnv::default();
        for w in [1, 0, 0, 1] {
            h.word(w);
        }
        let mut expect: u64 = 0xCBF2_9CE4_8422_2325;
        for w in [1u64, 0, 0, 1] {
            expect = (expect ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(h.hex(), format!("{expect:016x}"));
    }
}
