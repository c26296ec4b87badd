//! Log-bucketed histograms with quantile extraction.
//!
//! The paper stores response delays, hop counts and response sizes as
//! quartiles (§2.3). A log-spaced histogram gives bounded relative error
//! on quantiles with a few dozen counters, and merges trivially for the
//! time-aggregation step.

/// The logarithmic bucket layout of a [`LogHistogram`], as a standalone
/// value: bucket `i` covers `[base^i·min, base^(i+1)·min)`, bucket 0
/// additionally absorbs everything below `min`, and the last bucket
/// absorbs everything at or above `max`.
///
/// Extracted so other counting structures (the `telemetry` crate's atomic
/// histograms) share the exact same bucket math — an index computed here
/// means the same value range everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogBuckets {
    min: f64,
    base: f64,
    log_base: f64,
    len: usize,
}

impl LogBuckets {
    /// Layout spanning `[min, max)` with `buckets_per_decade` buckets per
    /// factor-of-10 (relative quantile error ≈ `10^(1/bpd) − 1`, e.g.
    /// ±12 % at bpd=20).
    pub fn new(min: f64, max: f64, buckets_per_decade: usize) -> LogBuckets {
        assert!(min > 0.0 && max > min, "need 0 < min < max");
        assert!(buckets_per_decade > 0);
        let base = 10f64.powf(1.0 / buckets_per_decade as f64);
        let log_base = base.ln();
        let len = ((max / min).ln() / log_base).ceil() as usize + 1;
        LogBuckets {
            min,
            base,
            log_base,
            len,
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a layout has at least two buckets by construction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket index for `value` (values below `min` clamp to 0, at or
    /// above `max` to the last bucket). `value` must not be NaN.
    pub fn index_of(&self, value: f64) -> usize {
        if value < self.min {
            return 0;
        }
        let idx = ((value / self.min).ln() / self.log_base) as usize;
        idx.min(self.len - 1)
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn lower_bound(&self, i: usize) -> f64 {
        self.min * self.base.powi(i as i32)
    }

    /// Exclusive upper bound of bucket `i` (the last bucket is unbounded
    /// in practice: it absorbs everything at or above `max`).
    pub fn upper_bound(&self, i: usize) -> f64 {
        self.min * self.base.powi(i as i32 + 1)
    }

    /// Geometric midpoint of bucket `i` — the representative value used
    /// for quantile extraction.
    pub fn midpoint(&self, i: usize) -> f64 {
        self.lower_bound(i) * self.base.sqrt()
    }

    /// Inclusive lower edge of the layout (the `min` passed to
    /// [`new`](Self::new)).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Per-bucket growth factor (`10^(1/buckets_per_decade)`).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Rebuild a layout from raw parts previously obtained via
    /// [`min`](Self::min)/[`base`](Self::base)/[`len`](Self::len) — the
    /// deserialization path. The derived `log_base` is recomputed exactly
    /// as [`new`](Self::new) does, so a round-tripped layout compares
    /// equal to the original.
    pub fn from_parts(min: f64, base: f64, len: usize) -> LogBuckets {
        assert!(min > 0.0 && min.is_finite(), "need finite min > 0");
        assert!(base > 1.0 && base.is_finite(), "need finite base > 1");
        assert!(len >= 1, "need at least one bucket");
        LogBuckets {
            min,
            base,
            log_base: base.ln(),
            len,
        }
    }
}

/// Histogram over non-negative values with logarithmically spaced buckets.
///
/// The bucket layout is a [`LogBuckets`]; the per-bucket representative
/// value used for quantiles is the geometric midpoint of the bucket.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: LogBuckets,
    counts: Vec<u64>,
    total: u64,
    /// Exact running sum, for means.
    sum: f64,
    observed_min: f64,
    observed_max: f64,
}

impl LogHistogram {
    /// Create a histogram spanning `[min, max)` with `buckets_per_decade`
    /// buckets per factor-of-10 (relative quantile error ≈
    /// `10^(1/bpd) − 1`, e.g. ±12 % at bpd=20).
    pub fn new(min: f64, max: f64, buckets_per_decade: usize) -> Self {
        Self::with_buckets(LogBuckets::new(min, max, buckets_per_decade))
    }

    /// Create a histogram over an existing bucket layout.
    pub fn with_buckets(buckets: LogBuckets) -> Self {
        LogHistogram {
            buckets,
            counts: vec![0; buckets.len()],
            total: 0,
            sum: 0.0,
            observed_min: f64::INFINITY,
            observed_max: f64::NEG_INFINITY,
        }
    }

    /// The bucket layout.
    pub fn buckets(&self) -> LogBuckets {
        self.buckets
    }

    /// A default configuration for millisecond delays: 0.1 ms – 100 s,
    /// 20 buckets per decade.
    pub fn for_delays_ms() -> Self {
        LogHistogram::new(0.1, 100_000.0, 20)
    }

    /// A default configuration for small integers (hop counts): 1–256.
    pub fn for_hops() -> Self {
        LogHistogram::new(1.0, 256.0, 40)
    }

    /// A default configuration for packet sizes in bytes: 10–65 535.
    pub fn for_sizes() -> Self {
        LogHistogram::new(10.0, 65536.0, 30)
    }

    /// Record one value (clamped into range; NaN ignored).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.record_at(self.buckets.index_of(value), value);
    }

    /// Record `value` (not NaN) in bucket `idx`, which the caller took
    /// from this histogram's layout ([`LogBuckets::index_of`]) — the
    /// logarithm is then paid once for any number of histograms that
    /// share the layout.
    pub fn record_at(&mut self, idx: usize, value: f64) {
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.observed_min = self.observed_min.min(value);
        self.observed_max = self.observed_max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean of recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min_value(&self) -> Option<f64> {
        (self.total > 0).then_some(self.observed_min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        (self.total > 0).then_some(self.observed_max)
    }

    /// Approximate quantile `q` in [0, 1]; `None` when empty.
    ///
    /// Returns the geometric midpoint of the bucket containing the
    /// q-th ranked value, clamped into the observed value range so results
    /// never exceed what was actually recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, ceil semantics.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = self.buckets.midpoint(i);
                return Some(mid.clamp(self.observed_min, self.observed_max));
            }
        }
        Some(self.observed_max)
    }

    /// The three quartiles `(q25, median, q75)`; `None` when empty.
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.25)?,
            self.quantile(0.50)?,
            self.quantile(0.75)?,
        ))
    }

    /// Per-bucket counts — the serialization surface, together with the
    /// layout and observed range.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild a histogram from raw parts (the deserialization path): a
    /// layout, per-bucket counts, and the observed value range. The total
    /// is recomputed from the counts; the running sum behind [`mean`]
    /// (Self::mean) is approximated from bucket midpoints — quantiles and
    /// observed bounds are exact, the mean is not. An empty histogram
    /// (all-zero counts) ignores the supplied range.
    pub fn from_parts(
        buckets: LogBuckets,
        counts: Vec<u64>,
        observed_min: f64,
        observed_max: f64,
    ) -> LogHistogram {
        assert_eq!(counts.len(), buckets.len(), "layout mismatch");
        let total: u64 = counts.iter().sum();
        let sum = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * buckets.midpoint(i))
            .sum();
        let (observed_min, observed_max) = if total == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (observed_min, observed_max)
        };
        LogHistogram {
            buckets,
            counts,
            total,
            sum,
            observed_min,
            observed_max,
        }
    }

    /// Merge another histogram with identical configuration.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.buckets, other.buckets, "config mismatch");
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.observed_min = self.observed_min.min(other.observed_min);
        self.observed_max = self.observed_max.max(other.observed_max);
    }

    /// Reset to empty, keeping the bucket configuration.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0.0;
        self.observed_min = f64::INFINITY;
        self.observed_max = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::for_delays_ms();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quartiles(), None);
    }

    #[test]
    fn single_value() {
        let mut h = LogHistogram::for_delays_ms();
        h.record(25.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(25.0)); // clamped to observed range
        assert_eq!(h.mean(), Some(25.0));
    }

    #[test]
    fn median_relative_error_bounded() {
        let mut h = LogHistogram::new(1.0, 10_000.0, 20);
        for i in 1..=999 {
            h.record(i as f64);
        }
        let med = h.quantile(0.5).unwrap();
        let rel = (med - 500.0).abs() / 500.0;
        // One bucket of slack at 20/decade is ~12%.
        assert!(rel < 0.13, "median {med}, rel err {rel}");
    }

    #[test]
    fn quartiles_are_ordered() {
        let mut h = LogHistogram::for_delays_ms();
        for i in 0..1000 {
            h.record(1.0 + (i % 311) as f64);
        }
        let (q25, q50, q75) = h.quartiles().unwrap();
        assert!(q25 <= q50 && q50 <= q75);
        assert!(q25 >= h.min_value().unwrap());
        assert!(q75 <= h.max_value().unwrap());
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = LogHistogram::new(1.0, 100.0, 10);
        h.record(0.001);
        h.record(1e9);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min_value(), Some(0.001));
        assert_eq!(h.max_value(), Some(1e9));
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = LogHistogram::new(1.0, 100.0, 10);
        h.record(f64::NAN);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LogHistogram::new(1.0, 1000.0, 15);
        let mut b = LogHistogram::new(1.0, 1000.0, 15);
        let mut c = LogHistogram::new(1.0, 1000.0, 15);
        for i in 1..=100 {
            a.record(i as f64);
            c.record(i as f64);
        }
        for i in 100..=400 {
            b.record(i as f64);
            c.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
        assert_eq!(a.mean(), c.mean());
    }

    #[test]
    fn clear_resets_but_keeps_config() {
        let mut h = LogHistogram::new(1.0, 100.0, 10);
        h.record(42.0);
        h.clear();
        assert!(h.is_empty());
        h.record(42.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bucket_layout_bounds_contain_their_values() {
        let b = LogBuckets::new(0.5, 2000.0, 10);
        for i in 0..200 {
            let v = 0.1 + i as f64 * 17.3;
            let idx = b.index_of(v);
            assert!(idx < b.len());
            if v >= 0.5 && idx < b.len() - 1 {
                assert!(
                    b.lower_bound(idx) <= v * (1.0 + 1e-12)
                        && v < b.upper_bound(idx) * (1.0 + 1e-12),
                    "v={v} idx={idx} lo={} hi={}",
                    b.lower_bound(idx),
                    b.upper_bound(idx)
                );
            }
        }
        // Below-range clamps to 0, above-range to the last bucket.
        assert_eq!(b.index_of(0.0001), 0);
        assert_eq!(b.index_of(1e12), b.len() - 1);
        // Midpoint sits inside its bucket.
        for i in 0..b.len() - 1 {
            assert!(b.lower_bound(i) <= b.midpoint(i) && b.midpoint(i) < b.upper_bound(i));
        }
    }

    #[test]
    fn quantile_extremes() {
        let mut h = LogHistogram::for_sizes();
        for v in [100.0, 200.0, 400.0, 800.0] {
            h.record(v);
        }
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
        assert!(h.quantile(1.0).unwrap() <= 800.0);
    }
}
