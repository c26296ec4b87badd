//! Time-series production (paper §2.4, step E): per-window dumps of every
//! dataset, held in memory and/or streamed to TSV files.
//!
//! [`TimeSeriesStore::cumulative`] merges a dataset's windows per key with
//! the rollup's routine ([`crate::aggregate`]), without turning counters
//! into rates: counters sum, estimates and `sources` average over the
//! windows where the key is present, `qdots`/`lvl`/`nslvl` average
//! weighted by hits, `qdots_max` is the max, the top-3 lists merge their
//! shares weighted by hits, and quartiles average over the windows where
//! they have a value.

use crate::features::FeatureRow;
use crate::keys::Dataset;
use serde::{Deserialize, Serialize};

/// One dataset's rows for one time window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// counters summed, every other feature merged by its rule
    /// ([`crate::aggregate`]), rows hits descending, then key ascending.
    ///
    /// This is the "whole measurement period" view used by the rank
    /// analyses (Fig. 2, Table 1, Table 2).
    pub fn cumulative(&self, dataset: Dataset) -> Vec<(String, FeatureRow)> {
        crate::aggregate::merge_windows(self.dataset(dataset), false)
    }
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
        let total = FeatureRow::merged(&[&a, &b], None);
        assert_eq!(total.ttl_top[0].0, 300, "majority TTL wins");
        assert!((total.ttl_top[0].1 - 0.9).abs() < 1e-9);
    }

    #[test]
    fn nan_quartiles_skipped() {
        let a = sample_row(0.5, 7);
        let b = FeatureRow {
            resp_delays: [f64::NAN; 3],
            ..a.clone()
        };
        let both = FeatureRow::merged(&[&b, &b], None);
        assert!(both.resp_delays.iter().all(|q| q.is_nan()));
        // Where the NaN window falls does not matter.
        let (ab, ba) = (
            FeatureRow::merged(&[&a, &b], None),
            FeatureRow::merged(&[&b, &a], None),
        );
        assert_eq!(ab.resp_delays, ba.resp_delays);
        // The window without a value is skipped, not counted as 0.
        assert_eq!(ab.resp_delays, a.resp_delays);
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
