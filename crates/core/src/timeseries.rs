//! Time-series production (paper §2.4, step E): per-window dumps of every
//! dataset, held in memory and/or streamed to TSV files.

use crate::features::FeatureRow;
use crate::keys::Dataset;
use serde::{Deserialize, Serialize};

/// One dataset's rows for one time window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowDump {
    /// Dataset name (`srvip`, `esld`, …).
    pub dataset: String,
    /// Window start, stream seconds.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// `(key, features)` rows, ordered by hits descending.
    pub rows: Vec<(String, FeatureRow)>,
    /// Transactions aggregated into monitored objects in this window.
    pub kept: u64,
    /// Transactions dropped (object not monitored).
    pub dropped: u64,
    /// Transactions excluded by the dataset filter.
    pub filtered: u64,
}

impl WindowDump {
    /// Total hits across all rows.
    pub fn total_hits(&self) -> u64 {
        self.rows.iter().map(|(_, r)| r.hits).sum()
    }

    /// Look up a key's row.
    pub fn get(&self, key: &str) -> Option<&FeatureRow> {
        self.rows.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }
}

/// Paper §2.4's residency rule, for both renderings (`TopKTracker::dump`
/// and `render_state`): an object is reported for the window starting at
/// `start` only if it was in the cache when the window opened, and was
/// hit in it.
pub(crate) fn reported(inserted_at: f64, hits: u64, start: f64) -> bool {
    inserted_at <= start && hits > 0
}

/// The one order of a window's rows, for both renderings: hits
/// descending, then key ascending.
pub(crate) fn sort_rows(rows: &mut [(String, FeatureRow)]) {
    rows.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then_with(|| a.0.cmp(&b.0)));
}

/// In-memory store of all window dumps produced by a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeriesStore {
    windows: Vec<WindowDump>,
}

impl TimeSeriesStore {
    /// Empty store.
    pub fn new() -> TimeSeriesStore {
        TimeSeriesStore::default()
    }

    /// Append one window dump.
    pub fn push(&mut self, dump: WindowDump) {
        self.windows.push(dump);
    }

    /// All windows, in arrival order.
    pub fn windows(&self) -> &[WindowDump] {
        &self.windows
    }

    /// Take every window out, in arrival order, leaving the store empty.
    pub fn take_windows(&mut self) -> Vec<WindowDump> {
        std::mem::take(&mut self.windows)
    }

    /// Windows belonging to one dataset, in time order.
    pub fn dataset(&self, dataset: Dataset) -> Vec<&WindowDump> {
        let name = dataset.name();
        self.windows.iter().filter(|w| w.dataset == name).collect()
    }

    /// Merge all windows of a dataset into cumulative per-key totals:
    /// counters summed, quartiles/cardinalities averaged over the windows
    /// where the key appears, TTL tops merged by vote share.
    ///
    /// This is the "whole measurement period" view used by the rank
    /// analyses (Fig. 2, Table 1, Table 2).
    pub fn cumulative(&self, dataset: Dataset) -> Vec<(String, FeatureRow)> {
        use std::collections::HashMap;
        let mut acc: HashMap<String, (FeatureRow, u64)> = HashMap::new();
        for w in self.dataset(dataset) {
            for (key, row) in &w.rows {
                match acc.get_mut(key) {
                    None => {
                        acc.insert(key.clone(), (row.clone(), 1));
                    }
                    Some((total, n)) => {
                        merge_rows(total, row);
                        *n += 1;
                    }
                }
            }
        }
        let mut out: Vec<(String, FeatureRow)> = acc
            .into_iter()
            .map(|(key, (mut row, n))| {
                finish_merge(&mut row, n);
                (key, row)
            })
            .collect();
        sort_rows(&mut out);
        out
    }
}

/// Accumulate `other` into `total`: counters add; means/cardinalities/
/// quartiles add (divided by the window count in `finish_merge`);
/// TTL tops merge weighted by hits.
pub(crate) fn merge_rows(total: &mut FeatureRow, other: &FeatureRow) {
    let w_total = total.hits as f64;
    let w_other = other.hits as f64;
    total.hits += other.hits;
    total.unans += other.unans;
    total.ok += other.ok;
    total.nxd += other.nxd;
    total.rfs += other.rfs;
    total.fail += other.fail;
    total.ok_ans += other.ok_ans;
    total.ok_ns += other.ok_ns;
    total.ok_add += other.ok_add;
    total.ok_nil += other.ok_nil;
    total.ok6 += other.ok6;
    total.ok6nil += other.ok6nil;
    total.ok_sec += other.ok_sec;
    // Cardinalities and averages: keep running sums; finish divides.
    total.srvips += other.srvips;
    total.srcips += other.srcips;
    total.sources += other.sources;
    total.qnamesa += other.qnamesa;
    total.qnames += other.qnames;
    total.tlds += other.tlds;
    total.eslds += other.eslds;
    total.qtypes += other.qtypes;
    total.ip4s += other.ip4s;
    total.ip6s += other.ip6s;
    // Hit-weighted means.
    let wsum = w_total + w_other;
    if wsum > 0.0 {
        total.qdots = (total.qdots * w_total + other.qdots * w_other) / wsum;
        total.lvl = (total.lvl * w_total + other.lvl * w_other) / wsum;
        total.nslvl = (total.nslvl * w_total + other.nslvl * w_other) / wsum;
    }
    total.qdots_max = total.qdots_max.max(other.qdots_max);
    merge_tops(&mut total.ttl_top, &other.ttl_top, w_total, w_other);
    merge_tops(&mut total.ttl_a_top, &other.ttl_a_top, w_total, w_other);
    merge_tops(&mut total.nsttl_top, &other.nsttl_top, w_total, w_other);
    merge_tops(&mut total.negttl_top, &other.negttl_top, w_total, w_other);
    merge_tops(&mut total.a_data_top, &other.a_data_top, w_total, w_other);
    merge_tops(
        &mut total.ns_names_top,
        &other.ns_names_top,
        w_total,
        w_other,
    );
    for i in 0..3 {
        total.resp_delays[i] = nan_add(total.resp_delays[i], other.resp_delays[i]);
        total.network_hops[i] = nan_add(total.network_hops[i], other.network_hops[i]);
        total.resp_size[i] = nan_add(total.resp_size[i], other.resp_size[i]);
    }
}

fn finish_merge(row: &mut FeatureRow, n: u64) {
    if n <= 1 {
        return;
    }
    let n = n as f64;
    // Cardinalities stay per-window averages (the paper aggregates
    // non-counters as means over present data points).
    for v in [
        &mut row.srvips,
        &mut row.srcips,
        &mut row.sources,
        &mut row.qnamesa,
        &mut row.qnames,
        &mut row.tlds,
        &mut row.eslds,
        &mut row.qtypes,
        &mut row.ip4s,
        &mut row.ip6s,
    ] {
        *v /= n;
    }
    for arr in [
        &mut row.resp_delays,
        &mut row.network_hops,
        &mut row.resp_size,
    ] {
        for v in arr.iter_mut() {
            *v /= n;
        }
    }
}

/// NaN-aware addition: missing (NaN) data points are skipped, matching
/// the paper's rule for non-counter features.
fn nan_add(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => f64::NAN,
        (true, false) => b,
        (false, true) => a,
        (false, false) => a + b,
    }
}

/// Merge two weighted top-value lists, keeping the top 3.
fn merge_tops(total: &mut Vec<(u64, f64)>, other: &[(u64, f64)], w_total: f64, w_other: f64) {
    let wsum = w_total + w_other;
    if wsum <= 0.0 {
        return;
    }
    let mut merged: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for &(v, s) in total.iter() {
        *merged.entry(v).or_default() += s * w_total / wsum;
    }
    for &(v, s) in other {
        *merged.entry(v).or_default() += s * w_other / wsum;
    }
    let mut list: Vec<(u64, f64)> = merged.into_iter().collect();
    list.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    list.truncate(3);
    *total = list;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, FeatureSet};
    use crate::summarize::TxSummary;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn sample_row(secs: f64, seed: u64) -> FeatureRow {
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

    fn dump(dataset: &str, start: f64, rows: Vec<(String, FeatureRow)>) -> WindowDump {
        WindowDump {
            dataset: dataset.into(),
            start,
            length: 60.0,
            kept: rows.iter().map(|r| r.1.hits).sum(),
            dropped: 0,
            filtered: 0,
            rows,
        }
    }

    #[test]
    fn store_filters_by_dataset() {
        let mut store = TimeSeriesStore::new();
        store.push(dump("srvip", 0.0, vec![]));
        store.push(dump("esld", 0.0, vec![]));
        store.push(dump("srvip", 60.0, vec![]));
        assert_eq!(store.dataset(Dataset::SrvIp).len(), 2);
        assert_eq!(store.dataset(Dataset::Esld).len(), 1);
        assert_eq!(store.dataset(Dataset::Qname).len(), 0);
        assert_eq!(store.windows().len(), 3);
    }

    #[test]
    fn cumulative_sums_counters() {
        let r1 = sample_row(1.0, 1);
        let r2 = sample_row(1.0, 2);
        let mut store = TimeSeriesStore::new();
        store.push(dump("srvip", 0.0, vec![("k".into(), r1.clone())]));
        store.push(dump("srvip", 60.0, vec![("k".into(), r2.clone())]));
        let cum = store.cumulative(Dataset::SrvIp);
        assert_eq!(cum.len(), 1);
        let row = &cum[0].1;
        assert_eq!(row.hits, r1.hits + r2.hits);
        assert_eq!(row.nxd, r1.nxd + r2.nxd);
        // Quartiles are averaged, so between the two inputs.
        let lo = r1.resp_delays[1].min(r2.resp_delays[1]);
        let hi = r1.resp_delays[1].max(r2.resp_delays[1]);
        assert!(row.resp_delays[1] >= lo && row.resp_delays[1] <= hi);
        // Cardinalities averaged.
        let lo = r1.srvips.min(r2.srvips);
        let hi = r1.srvips.max(r2.srvips);
        assert!(row.srvips >= lo - 1e-9 && row.srvips <= hi + 1e-9);
    }

    #[test]
    fn cumulative_sorts_by_hits() {
        let big = sample_row(1.5, 3);
        let small = sample_row(0.2, 4);
        let mut store = TimeSeriesStore::new();
        store.push(dump(
            "esld",
            0.0,
            vec![("small".into(), small), ("big".into(), big)],
        ));
        let cum = store.cumulative(Dataset::Esld);
        assert_eq!(cum[0].0, "big");
    }

    #[test]
    fn ttl_tops_merge_by_weight() {
        let mut a = sample_row(1.0, 5);
        let mut b = sample_row(1.0, 6);
        a.ttl_top = vec![(300, 1.0)];
        a.hits = 900;
        b.ttl_top = vec![(60, 1.0)];
        b.hits = 100;
        let mut total = a.clone();
        merge_rows(&mut total, &b);
        assert_eq!(total.ttl_top[0].0, 300, "majority TTL wins");
        assert!((total.ttl_top[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn nan_quartiles_skipped() {
        let mut a = sample_row(0.5, 7);
        let b = {
            let mut r = a.clone();
            r.resp_delays = [f64::NAN; 3];
            r
        };
        let before = a.resp_delays[1];
        merge_rows(&mut a, &b);
        // NaN input leaves the sum equal to the original value.
        assert_eq!(a.resp_delays[1], before);
    }

    #[test]
    fn window_helpers() {
        let r = sample_row(0.5, 8);
        let hits = r.hits;
        let w = dump("qname", 0.0, vec![("x".into(), r)]);
        assert_eq!(w.total_hits(), hits);
        assert!(w.get("x").is_some());
        assert!(w.get("y").is_none());
    }
}
