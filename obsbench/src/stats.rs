//! Sample statistics: the median, the tail percentile a sample count
//! supports, and the quartile spread used to fix regression bounds.

/// Percentile `p` (0–100) of an ascending-sorted sample, by linear
/// interpolation between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// The tail percentiles a report may quote, ascending, in per mille so
/// that the sample arithmetic is exact.
const TAILS_PER_MILLE: [u64; 4] = [900, 950, 990, 999];

/// The highest percentile of [`TAILS_PER_MILLE`] that still has at least ten
/// samples beyond it, or `None` when even p90 has not (fewer than 100
/// samples): a tail read off fewer samples is one outlier, not a
/// percentile.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| samples as u64 * (1_000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 10.0)
}

/// A timing as the guide asks for it: median, supported tail, count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)` of the supported tail, when there is one.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(values: &[f64]) -> Timing {
        let s = sorted(values);
        Timing {
            samples: s.len(),
            p50: percentile_sorted(&s, 50.0),
            tail: supported_tail(s.len()).map(|p| (p, percentile_sorted(&s, p))),
        }
    }

    pub fn render(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.3} {unit}, p{p} {v:.3} {unit}, n={}",
                self.p50, self.samples
            ),
            None => format!("p50 {:.3} {unit}, n={}", self.p50, self.samples),
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// check of this benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn timing_reports_median_and_supported_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.samples, 200);
        assert!((t.p50 - 100.5).abs() < 1e-9);
        let (p, tail) = t.tail.expect("200 samples support p95");
        assert_eq!(p, 95.0);
        assert!((tail - 190.05).abs() < 1e-9);
        assert_eq!(Timing::of(&[3.0, 1.0, 2.0]).tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
    }
}
