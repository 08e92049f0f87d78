//! Order statistics over repetitions and percentile estimates from the
//! telemetry layer's log2-microsecond histograms.

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie beyond a percentile before it is
/// reported: a tail estimate resting on fewer is not repeatable.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// Whether fewer than [`MIN_TAIL_SAMPLES`] of `n` samples lie beyond the
/// `q`-quantile (with slack for `1 - q` not being exact in binary).
fn tail_too_thin(n: f64, q: f64) -> bool {
    n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics, or `None` when fewer than [`MIN_TAIL_SAMPLES`] values lie
/// beyond it.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len() as f64;
    if tail_too_thin(n, q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (n - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// A latency histogram in the layout of `clumsy_core::Telemetry`:
/// bucket `i` counts whole-microsecond spans with
/// `floor(log2(max(us, 1))) == i`, and the last bucket absorbs the tail.
/// Bucket 0 therefore spans `[0, 2)` µs and bucket `i ≥ 1` spans
/// `[2^i, 2^(i+1))` µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Log2Histogram {
    /// Per-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Largest sample seen, in µs.
    pub max_us: u64,
    /// Sum of all samples, in µs.
    pub total_us: u64,
}

impl Log2Histogram {
    /// Builds a histogram from `(bucket floor µs, count)` pairs, the form
    /// `MetricsSnapshot` exposes (floor 1 is bucket 0).
    pub fn from_floors(pairs: &[(u64, u64)], max_us: u64, total_us: u64) -> Self {
        let mut buckets = Vec::new();
        for &(floor, n) in pairs {
            let i = floor.max(1).ilog2() as usize;
            if buckets.len() <= i {
                buckets.resize(i + 1, 0);
            }
            buckets[i] += n;
        }
        Log2Histogram {
            buckets,
            max_us,
            total_us,
        }
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.max_us = self.max_us.max(other.max_us);
        self.total_us += other.total_us;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample in µs, or `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.total_us as f64 / n as f64)
    }

    /// The `q`-quantile (`0 < q < 1`) in µs. Within the bucket that
    /// holds it the estimate interpolates log-linearly (linearly in
    /// bucket 0, whose floor is 0), so adjacent buckets meet at their
    /// shared edge; the result is clamped to the bucket floor and to the
    /// observed maximum. `None` when fewer than [`MIN_TAIL_SAMPLES`]
    /// samples lie beyond the quantile.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let total = self.count() as f64;
        if tail_too_thin(total, q) {
            return None;
        }
        let rank = q * total;
        let mut below = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            let n = n as f64;
            if n == 0.0 || below + n < rank {
                below += n;
                continue;
            }
            let frac = ((rank - below) / n).clamp(0.0, 1.0);
            let (floor, estimate) = if i == 0 {
                (0.0, 2.0 * frac)
            } else {
                let floor = (1u64 << i) as f64;
                (floor, floor * frac.exp2())
            };
            return Some(estimate.max(floor).min(self.max_us as f64));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: &[(usize, u64)], max_us: u64) -> Log2Histogram {
        let mut h = Log2Histogram {
            max_us,
            ..Log2Histogram::default()
        };
        for &(i, n) in buckets {
            if h.buckets.len() <= i {
                h.buckets.resize(i + 1, 0);
            }
            h.buckets[i] = n;
        }
        h
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_and_needs_a_tail() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert!((quantile(&v, 0.895).unwrap() - 89.5).abs() < 1e-9);
        assert!(quantile(&v, 0.95).is_none(), "5 values beyond p95");
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn bucket_zero_spans_zero_to_two_microseconds() {
        // 0 µs and 1 µs both land in bucket 0 (`us.max(1)`), so its
        // estimates run linearly from 0 up to the edge of bucket 1.
        let h = hist(&[(0, 1000)], 1);
        assert!((h.percentile(0.1).unwrap() - 0.2).abs() < 1e-9);
        assert!((h.percentile(0.4).unwrap() - 0.8).abs() < 1e-9);
        // Clamped to the observed maximum of 1 µs.
        assert_eq!(h.percentile(0.9), Some(1.0));
    }

    #[test]
    fn estimates_are_clamped_to_the_observed_max() {
        // Unclamped, p99 of a bucket [1024, 2048) would be ~2033 µs.
        let h = hist(&[(10, 10_000)], 1100);
        assert_eq!(h.percentile(0.99), Some(1100.0));
        assert!(h.percentile(0.5).unwrap() >= 1024.0);
    }

    #[test]
    fn too_few_tail_samples_give_no_estimate() {
        let h = hist(&[(5, 100)], 60);
        assert!(h.percentile(0.95).is_none(), "only 5 samples beyond p95");
        assert!(h.percentile(0.90).is_some(), "10 samples beyond p90");
        assert!(Log2Histogram::default().percentile(0.5).is_none());
    }

    #[test]
    fn adjacent_buckets_meet_at_their_shared_edge() {
        let h = hist(&[(3, 500), (4, 500)], 31);
        let eps = 1e-9;
        let below = h.percentile(0.5 - eps).unwrap();
        let at = h.percentile(0.5).unwrap();
        let above = h.percentile(0.5 + eps).unwrap();
        assert!((at - 16.0).abs() < 1e-6, "{at}");
        assert!((below - 16.0).abs() < 1e-6 && (above - 16.0).abs() < 1e-6);
        // Bucket 0 meets bucket 1 at 2 µs as well.
        let h0 = hist(&[(0, 500), (1, 500)], 3);
        assert!((h0.percentile(0.5).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn floors_convert_to_bucket_indices_and_merge() {
        let mut a = Log2Histogram::from_floors(&[(1, 3), (8, 2)], 9, 30);
        assert_eq!(a.buckets, vec![3, 0, 0, 2]);
        let b = Log2Histogram::from_floors(&[(2, 1)], 3, 3);
        a.merge(&b);
        assert_eq!(a.buckets, vec![3, 1, 0, 2]);
        assert_eq!((a.count(), a.max_us, a.total_us), (6, 9, 33));
        assert_eq!(a.mean_us(), Some(5.5));
    }
}
