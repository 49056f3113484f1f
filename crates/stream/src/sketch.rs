//! A fixed-size, mergeable histogram for long-tailed quantities.
//!
//! [`LogHistogram`] is a base-2 log-bucket histogram (65 fixed buckets):
//! the streaming summary keeps request inter-arrival gaps in one, and
//! `essio-obs` keeps its distribution metrics in them. Its merge is exact
//! bucket-wise addition, so shards reduce in any order.

/// Number of buckets in a [`LogHistogram`] (covers the full `u64` range).
pub const LOG_BUCKETS: usize = 65;

/// Base-2 logarithmic histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i)`. Fixed 65-counter footprint, exact merge, quantiles
/// with relative error bounded by the bucket width (a factor of 2).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Per-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub total: u64,
    /// Exact sum of samples (for exact means over sketched distributions).
    pub sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; LOG_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i`'s value range.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Exact mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Bucket floor of the `q`-quantile (q in [0, 1]); within a factor of
    /// 2 of the true quantile.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(LOG_BUCKETS - 1)
    }

    /// Exact bucket-wise merge.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new();
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.total, 7);
        assert_eq!(h.sum, 1110);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.quantile_floor(0.0), 0);
        assert!(h.quantile_floor(1.0) >= 512);
    }

    #[test]
    fn log_histogram_merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.observe(v * 31);
            } else {
                b.observe(v * 31);
            }
            whole.observe(v * 31);
        }
        a.merge(&b);
        assert_eq!(a.buckets, whole.buckets);
        assert_eq!(a.total, whole.total);
        assert_eq!(a.sum, whole.sum);
    }
}
