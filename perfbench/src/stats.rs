//! Order statistics, means and the bandwidth roof the benchmark reports.

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least `p`% of the sample at or below it. `p` is clamped to `[0, 100]`; an
/// empty sample gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sort a sample and take its nearest-rank percentile.
pub fn percentile_of(mut sample: Vec<f64>, p: f64) -> f64 {
    sample.sort_by(f64::total_cmp);
    percentile(&sample, p)
}

/// Nearest-rank median (the lower middle for even counts).
pub fn median(sample: Vec<f64>) -> f64 {
    percentile_of(sample, 50.0)
}

/// Geometric mean of positive values; 0 when the sample is empty or holds a
/// value that is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The memory-bandwidth roof of SpMV: two flops per stored nonzero, and
/// `bytes_per_nnz` bytes to stream per nonzero at `triad_gbs` GB/s.
pub fn roof_gflops(triad_gbs: f64, bytes_per_nnz: f64) -> f64 {
    2.0 * triad_gbs / bytes_per_nnz
}

/// Achieved rate as a share of the roof; above 1 the operand is served from
/// cache rather than memory.
pub fn pct_of_roof(gflops: f64, triad_gbs: f64, bytes_per_nnz: f64) -> f64 {
    gflops / roof_gflops(triad_gbs, bytes_per_nnz)
}

/// The median over `windows` windows of a statistic of each window's values.
/// `samples` pairs a window index with a value; `stat` also sees the windows
/// that got no sample (as an empty vector). Interference from other tenants
/// of a shared host comes in bursts that spoil the windows they overlap; the
/// median ignores up to half of the windows, while a change to the program
/// moves every window.
pub fn window_median(
    samples: &[(usize, f64)],
    windows: usize,
    stat: impl Fn(Vec<f64>) -> f64,
) -> f64 {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(w, v) in samples {
        bins[w].push(v);
    }
    median(bins.into_iter().map(stat).collect())
}

/// Window of an instant `at` in a run of `cycles` segments, each split into
/// `per_segment` equal windows: `segment` is the segment's index, `start`
/// and `len` its start and length. `None` when `at` falls outside it.
pub fn window_of(
    at: std::time::Instant,
    segment: usize,
    start: std::time::Instant,
    len: std::time::Duration,
    per_segment: usize,
) -> Option<usize> {
    let off = at.checked_duration_since(start)?.as_secs_f64() / len.as_secs_f64();
    (off < 1.0).then(|| segment * per_segment + (off * per_segment as f64) as usize)
}

/// 64-bit FNV-1a over the bit patterns of a vector: a compact fingerprint for
/// replies that are verified after the measured phase.
pub fn bits_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bitwise equality of two vectors (distinguishes `-0.0`/`0.0` and NaN payloads).
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label, so independent input
    /// streams of one run do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
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

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A vector of `n` values uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Zipf(s) over ranks `0..n`: rank `i` is drawn with weight `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 99.5), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // Nearest rank never interpolates: p50 of {1, 2} is 1, not 1.5.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile_of(vec![5.0, 1.0, 4.0, 2.0, 3.0], 80.0), 4.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        // Scale-free: geomean(k·x) = k·geomean(x).
        let g = geomean(&[0.3, 1.7, 4.2]);
        assert!((geomean(&[0.6, 3.4, 8.4]) - 2.0 * g).abs() < 1e-12);
    }

    #[test]
    fn roof_arithmetic() {
        // 12 B/nnz (8 B value + 4 B index) at 24 GB/s streams 2 Gnnz/s = 4 GFLOP/s.
        assert!((roof_gflops(24.0, 12.0) - 4.0).abs() < 1e-12);
        assert!((pct_of_roof(2.0, 24.0, 12.0) - 0.5).abs() < 1e-12);
        // Fewer bytes per nonzero raise the roof proportionally.
        assert!((roof_gflops(24.0, 6.0) - 8.0).abs() < 1e-12);
        // Above the roof means the operand came from cache.
        assert!(pct_of_roof(10.0, 24.0, 12.0) > 1.0);
    }

    #[test]
    fn window_median_ignores_a_burst() {
        // Five windows of ten samples; window 2 holds a 100× stall.
        let samples: Vec<(usize, f64)> = (0..50)
            .map(|i| {
                (
                    i / 10,
                    if i / 10 == 2 {
                        100.0
                    } else {
                        1.0 + i as f64 / 100.0
                    },
                )
            })
            .collect();
        let p90 = window_median(&samples, 5, |v| percentile_of(v, 90.0));
        assert!((p90 - 1.38).abs() < 1e-12);
        // A window without samples is seen by the statistic as empty: a rate
        // of zero, not a skipped window.
        let rates = window_median(&samples[..20], 5, |v| v.len() as f64);
        assert_eq!(rates, 0.0);
        let t0 = std::time::Instant::now();
        let ms = std::time::Duration::from_millis;
        assert_eq!(window_of(t0 + ms(10), 3, t0, ms(40), 4), Some(13));
        assert_eq!(window_of(t0 + ms(39), 3, t0, ms(40), 4), Some(15));
        assert_eq!(window_of(t0 + ms(40), 3, t0, ms(40), 4), None);
        assert_eq!(window_of(t0, 0, t0 + ms(1), ms(40), 4), None);
    }

    #[test]
    fn bit_fingerprints() {
        assert!(bitwise_eq(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
        assert!(!bitwise_eq(&[1.0], &[1.0, 2.0]));
        assert_ne!(bits_hash(&[0.0]), bits_hash(&[-0.0]));
        assert_eq!(bits_hash(&[1.5, 2.5]), bits_hash(&[1.5, 2.5]));
    }

    #[test]
    fn rng_and_zipf_repeat_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let z = Zipf::new(20, 1.0);
        let mut r = Rng::new(3, 0);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[19]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
