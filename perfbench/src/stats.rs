//! Latency histograms and the statistics the benchmark reports.

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest tail percentile that still has at least ten samples
/// beyond it in a sample of `n` (`None` when not even the median has).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| n - rank(n, p) >= 10)
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples
/// (0 for an empty sample), robust to `p * n / 100` landing a hair above
/// a whole number in floating point.
fn rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    ((exact - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank rule,
/// or `NaN` for an empty sample: the reference [`Hist::percentile`] is
/// tested against.
#[cfg(test)]
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts a sample in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Indices, in run order, of the segments whose steal share is no higher
/// than that of the `keep`-th calmest one: at least `keep` segments, and
/// every segment of a run the hypervisor left alone.
pub fn least_stolen(steal_share: &[f64], keep: usize) -> Vec<usize> {
    let mut sorted_shares = sorted(steal_share.to_vec());
    sorted_shares.truncate(keep.max(1));
    let Some(&limit) = sorted_shares.last() else {
        return Vec::new();
    };
    (0..steal_share.len())
        .filter(|&i| steal_share[i] <= limit)
        .collect()
}

/// Sub-buckets per power of two: a bucket is at most 1/128 (0.8 %) wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A log-linear histogram of nanosecond latencies. Its size is fixed, so
/// the benchmark's own memory does not grow with the number of calls and
/// `peak_rss_mb` measures the program.
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + (ns >> shift) - SUB) as usize
}

/// Lowest value and width of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `p`-th percentile by the nearest-rank rule, interpolated
    /// linearly inside its bucket; `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let r = rank(self.n as usize, p) as u64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if before + c >= r {
                let (lo, width) = bucket_bounds(i);
                let within = (r - before) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            before += c;
        }
        unreachable!("rank {r} lies within {} samples", self.n)
    }
}

/// `call_p99_us` of a run: the 99th percentile of its latencies in µs,
/// by the same rule as [`tail_percentile`] (`NaN` when the run has fewer
/// than ten samples beyond it).
pub fn p99_us(lat: &Hist) -> f64 {
    match tail_percentile(lat.count() as usize) {
        Some(p) if p >= 99.0 => lat.percentile(99.0) / 1e3,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(bucket(lo), i);
            assert_eq!(bucket(lo + (width - 1)), i);
            assert!(lo < SUB || width * SUB <= lo, "bucket {i} too wide");
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Hist::default();
        let values: Vec<f64> = (1..=10_000u64)
            .map(|i| (i * 7_919 % 10_007 + 50_000) as f64)
            .collect();
        for &v in &values {
            h.record(v as u64);
        }
        let exact = sorted(values);
        for p in [50.0, 90.0, 99.0, 99.9] {
            let (got, want) = (h.percentile(p), percentile(&exact, p));
            assert!((got - want).abs() / want < 0.008, "p{p}: {got} vs {want}");
        }
        assert!(Hist::default().percentile(50.0).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for i in 1..=999u64 {
            h.record(i * 1_000);
        }
        assert!(p99_us(&h).is_nan(), "999 calls leave 9 beyond p99");
        h.record(1_000_000);
        assert!((p99_us(&h) - 990.0).abs() / 990.0 < 0.008);
    }

    #[test]
    fn least_stolen_keeps_the_calmest_segments_and_their_ties() {
        let shares = [0.2, 0.0, 0.05, 0.0, 0.3, 0.01];
        assert_eq!(least_stolen(&shares, 3), vec![1, 3, 5]);
        assert_eq!(least_stolen(&shares, 2), vec![1, 3]);
        assert_eq!(least_stolen(&[0.1, 0.0, 0.1, 0.1], 2), vec![0, 1, 2, 3]);
        assert_eq!(least_stolen(&[0.0; 4], 2), vec![0, 1, 2, 3]);
        assert_eq!(least_stolen(&shares, 9).len(), shares.len());
        assert!(least_stolen(&[], 3).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
