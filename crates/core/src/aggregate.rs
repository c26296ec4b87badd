//! Time aggregation (paper §2.4, step F): the rows of several windows of
//! one dataset merge by key, into one coarser window ([`rollup`], which
//! `dnsobs` writes as a `10win-` file every ten windows) or into a whole
//! run's totals ([`TimeSeriesStore::cumulative`]). Both are one routine,
//! `merge_windows`.
//!
//! Each feature merges by the rule its line of the feature table names
//! ([`crate::features`]):
//! - counters (`sum`) add up; a rollup then divides them by the window
//!   count, so they become the mean rate per window, 0 where the object
//!   is missing;
//! - estimates and `sources` (`mean`) average over the windows where
//!   the object is present;
//! - `qdots`, `lvl` and `nslvl` (`weighted`) average weighted by each
//!   window's hits, as the means of transactions they are;
//! - `qdots_max` (`max`) keeps the largest;
//! - the top-3 lists (`tops`) merge their shares weighted by hits and
//!   keep the three largest;
//! - quartiles (`quartiles`) average over the windows where they have a
//!   value: a window where the object got no response (NaN) counts
//!   neither as 0 nor in the divisor.
//!
//! [`TimeSeriesStore::cumulative`]: crate::timeseries::TimeSeriesStore::cumulative

use crate::features::FeatureRow;
use crate::timeseries::{sort_rows, WindowDump};
use std::collections::HashMap;

/// Aggregate consecutive window dumps of one dataset into one coarser
/// dump: counters become the mean per window, everything else merges by
/// its rule (module docs).
pub fn rollup(windows: &[WindowDump]) -> WindowDump {
    assert!(!windows.is_empty(), "cannot roll up zero windows");
    let dataset = windows[0].dataset.clone();
    assert!(
        windows.iter().all(|w| w.dataset == dataset),
        "mixed datasets in rollup"
    );
    WindowDump {
        rows: merge_windows(windows, true),
        dataset,
        start: windows[0].start,
        length: windows.iter().map(|w| w.length).sum(),
        kept: windows.iter().map(|w| w.kept).sum(),
        dropped: windows.iter().map(|w| w.dropped).sum(),
        filtered: windows.iter().map(|w| w.filtered).sum(),
    }
}

/// Merge the rows of `windows` by key, each feature by its rule; with
/// `per_window`, counters are divided by the window count. Rows come out
/// hits descending, then key ascending.
pub(crate) fn merge_windows<'a>(
    windows: impl IntoIterator<Item = &'a WindowDump>,
    per_window: bool,
) -> Vec<(String, FeatureRow)> {
    let mut by_key: HashMap<&str, Vec<&FeatureRow>> = HashMap::new();
    let mut count = 0;
    for w in windows {
        count += 1;
        for (key, row) in &w.rows {
            by_key.entry(key).or_default().push(row);
        }
    }
    let per_window = per_window.then_some(count as f64);
    let mut rows: Vec<(String, FeatureRow)> = by_key
        .into_iter()
        .map(|(key, rows)| (key.to_string(), FeatureRow::merged(&rows, per_window)))
        .collect();
    sort_rows(&mut rows);
    rows
}

// The merge rules the feature table names. Each takes one feature's
// values of one key, in window order, with the hits behind each, and the
// window count when counters become rates per window.

/// Counters: summed, then divided per window in a rollup.
pub(crate) fn sum<'a>(
    values: impl Iterator<Item = (&'a u64, f64)>,
    per_window: Option<f64>,
) -> u64 {
    let total: u64 = values.map(|(v, _)| v).sum();
    per_window.map_or(total, |n| (total as f64 / n).round() as u64)
}

/// Estimates: the mean over the windows where the key is present.
pub(crate) fn mean<'a>(values: impl Iterator<Item = (&'a f64, f64)>, _: Option<f64>) -> f64 {
    let (sum, present) = values.fold((0.0, 0.0), |(sum, n), (v, _)| (sum + v, n + 1.0));
    sum / present
}

/// Means over transactions: weighted by each window's hits.
pub(crate) fn weighted<'a>(
    mut values: impl Iterator<Item = (&'a f64, f64)>,
    _: Option<f64>,
) -> f64 {
    let (&first, mut hits) = values.next().expect("a merged key has a row");
    values.fold(first, |mean, (&v, w)| {
        let (w_mean, sum) = (hits, hits + w);
        hits = sum;
        if sum > 0.0 {
            (mean * w_mean + v * w) / sum
        } else {
            mean
        }
    })
}

/// Maxima: the largest.
pub(crate) fn max<'a>(values: impl Iterator<Item = (&'a u8, f64)>, _: Option<f64>) -> u8 {
    values.map(|(&v, _)| v).max().unwrap_or(0)
}

/// Top-3 lists: shares merged weighted by hits, the three largest kept
/// (ties to the smaller value).
pub(crate) fn tops<'a>(
    mut values: impl Iterator<Item = (&'a Vec<(u64, f64)>, f64)>,
    _: Option<f64>,
) -> Vec<(u64, f64)> {
    let (first, mut hits) = values.next().expect("a merged key has a row");
    values.fold(first.clone(), |list, (other, w)| {
        let (w_list, sum) = (hits, hits + w);
        hits = sum;
        if sum <= 0.0 {
            return list;
        }
        let mut merged: HashMap<u64, f64> = HashMap::new();
        for &(v, s) in &list {
            *merged.entry(v).or_default() += s * w_list / sum;
        }
        for &(v, s) in other {
            *merged.entry(v).or_default() += s * w / sum;
        }
        let mut list: Vec<(u64, f64)> = merged.into_iter().collect();
        list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        list.truncate(3);
        list
    })
}

/// Quartiles: the mean over the windows where they have a value (NaN
/// is none), NaN where no window has one.
pub(crate) fn quartiles<'a>(
    values: impl Iterator<Item = (&'a [f64; 3], f64)>,
    _: Option<f64>,
) -> [f64; 3] {
    let (mut sum, mut valued) = ([0.0; 3], [0.0; 3]);
    for (v, _) in values {
        for i in 0..3 {
            if !v[i].is_nan() {
                sum[i] += v[i];
                valued[i] += 1.0;
            }
        }
    }
    // 0 / 0 is NaN: no window had a value.
    std::array::from_fn(|i| sum[i] / valued[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, FeatureSet};
    use crate::summarize::TxSummary;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn row(secs: f64, seed: u64) -> FeatureRow {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig {
            seed,
            ..SimConfig::small()
        });
        let mut fs = FeatureSet::new(FeatureConfig::default());
        sim.run(secs, &mut |tx| {
            fs.fold(&TxSummary::from_transaction(tx, &psl))
        });
        fs.row()
    }

    fn dump(start: f64, rows: Vec<(String, FeatureRow)>) -> WindowDump {
        WindowDump {
            dataset: "esld".into(),
            start,
            length: 60.0,
            kept: rows.iter().map(|r| r.1.hits).sum(),
            dropped: 0,
            filtered: 0,
            rows,
        }
    }

    #[test]
    fn counters_average_with_zero_fill() {
        let r = row(1.0, 1);
        let hits = r.hits;
        // Object present in 1 of 2 windows → mean rate = hits/2.
        let d1 = dump(0.0, vec![("k".into(), r)]);
        let d2 = dump(60.0, vec![]);
        let rolled = rollup(&[d1, d2]);
        assert_eq!(rolled.rows.len(), 1);
        assert_eq!(rolled.rows[0].1.hits, hits.div_ceil(2).max(hits / 2));
        assert_eq!(rolled.length, 120.0);
    }

    #[test]
    fn noncounters_average_over_present_only() {
        let r = row(1.0, 2);
        let srvips = r.srvips;
        let d1 = dump(0.0, vec![("k".into(), r)]);
        let d2 = dump(60.0, vec![]);
        let rolled = rollup(&[d1, d2]);
        // Present in one window → unchanged, NOT halved.
        assert!((rolled.rows[0].1.srvips - srvips).abs() < 1e-9);
    }

    #[test]
    fn rollup_of_identical_windows_is_identity_for_counters() {
        let r = row(1.0, 3);
        let d1 = dump(0.0, vec![("k".into(), r.clone())]);
        let d2 = dump(60.0, vec![("k".into(), r.clone())]);
        let rolled = rollup(&[d1, d2]);
        assert_eq!(rolled.rows[0].1.hits, r.hits);
        assert!((rolled.rows[0].1.resp_delays[1] - r.resp_delays[1]).abs() < 1e-9);
    }

    /// A window where the key got no response has no quartiles: it must
    /// not pull the others' mean down, in a rollup or cumulatively.
    #[test]
    fn a_window_without_responses_keeps_the_quartiles() {
        let answered = FeatureRow {
            resp_delays: [4.0, 8.0, 12.0],
            ..row(0.3, 7)
        };
        let silent = FeatureRow {
            resp_delays: [f64::NAN; 3],
            ..answered.clone()
        };
        let windows = [
            dump(0.0, vec![("k".into(), answered)]),
            dump(60.0, vec![("k".into(), silent.clone())]),
        ];
        assert_eq!(rollup(&windows).rows[0].1.resp_delays, [4.0, 8.0, 12.0]);
        let mut store = crate::timeseries::TimeSeriesStore::new();
        windows.into_iter().for_each(|w| store.push(w));
        let cumulative = store.cumulative(crate::keys::Dataset::Esld);
        assert_eq!(cumulative[0].1.resp_delays, [4.0, 8.0, 12.0]);
        let none = rollup(&[dump(0.0, vec![("k".into(), silent)])]);
        assert!(none.rows[0].1.resp_delays.iter().all(|q| q.is_nan()));
    }

    #[test]
    #[should_panic(expected = "mixed datasets")]
    fn mixed_datasets_rejected() {
        let r = row(0.3, 4);
        let mut d2 = dump(60.0, vec![("k".into(), r.clone())]);
        d2.dataset = "qname".into();
        let d1 = dump(0.0, vec![("k".into(), r)]);
        rollup(&[d1, d2]);
    }
}
