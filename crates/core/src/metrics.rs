//! Pipeline observability: telemetry handles for the Observatory fold
//! plus the periodic `meta` self-report (paper §2.4 stores the platform's
//! own collection statistics next to the data; this module generalizes
//! that to a full metric snapshot on the same TSV path).
//!
//! All handles come from a [`telemetry::Registry`] so tests can use a
//! fresh registry per run; `collect` passes the global one.
//! Registration happens once per fold (cold path); the hot path touches
//! only sharded atomic counters, gauges, and histograms.

use crate::keys::Dataset;
use crate::topk::TopKTracker;
use telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};

/// Handles an [`crate::Observatory`] reports into once it has a registry.
#[derive(Debug)]
pub(crate) struct FoldMetrics {
    /// `pipeline_ingested_total`: summaries folded, bumped after each
    /// fold — a loop closed on it is held to the trackers' pace.
    pub ingested: Counter,
    /// `pipeline_windows_total`: windows closed.
    pub windows: Counter,
    /// `pipeline_window_seconds{stage="fold"}`: wall residency of each
    /// window from open to close — the fold's leg of a sealed window's
    /// lineage.
    pub window_seconds: Histogram,
    /// Per-dataset tracker handles, in config order.
    pub trackers: Vec<TrackerMetrics>,
}

impl FoldMetrics {
    /// Register (or re-attach to) the fold's handles for `datasets`.
    pub fn register(registry: &Registry, datasets: &[Dataset]) -> FoldMetrics {
        FoldMetrics {
            ingested: registry.counter("pipeline_ingested_total"),
            windows: registry.counter("pipeline_windows_total"),
            window_seconds: registry.histogram_with(
                "pipeline_window_seconds",
                &[("stage", "fold")],
                Histogram::seconds_layout(),
            ),
            trackers: datasets
                .iter()
                .map(|&ds| TrackerMetrics::register(registry, ds))
                .collect(),
        }
    }
}

/// Handles for one dataset's tracker, flushed at window closes so the
/// observe path stays allocation- and atomic-free.
#[derive(Debug, Clone)]
pub(crate) struct TrackerMetrics {
    /// `pipeline_kept_total{dataset}`.
    pub kept: Counter,
    /// `pipeline_dropped_total{dataset}`.
    pub dropped: Counter,
    /// `pipeline_filtered_total{dataset}`.
    pub filtered: Counter,
    /// `topk_evictions_total{dataset}`: Space-Saving displacements.
    pub evictions: Counter,
    /// `topk_monitored{dataset}`: objects currently in the cache.
    pub monitored: Gauge,
    /// `topk_min_count{dataset}`: smallest monitored count — the
    /// Space-Saving error bound actually in force.
    pub min_count: Gauge,
    /// `topk_error_bound{dataset}`: worst-case over-count
    /// (observed / capacity).
    pub error_bound: Gauge,
    /// Eviction total at the previous flush (for delta computation).
    prev_evictions: u64,
}

impl TrackerMetrics {
    fn register(registry: &Registry, dataset: Dataset) -> TrackerMetrics {
        let labels: &[(&str, &str)] = &[("dataset", dataset.name())];
        TrackerMetrics {
            kept: registry.counter_with("pipeline_kept_total", labels),
            dropped: registry.counter_with("pipeline_dropped_total", labels),
            filtered: registry.counter_with("pipeline_filtered_total", labels),
            evictions: registry.counter_with("topk_evictions_total", labels),
            monitored: registry.gauge_with("topk_monitored", labels),
            min_count: registry.gauge_with("topk_min_count", labels),
            error_bound: registry.gauge_with("topk_error_bound", labels),
            prev_evictions: 0,
        }
    }

    /// Flush one window's deltas for this tracker. `stat_delta` is the
    /// window's `(kept, dropped, filtered)` — already computed for the
    /// window dump, so telemetry and TSV totals agree by construction.
    pub fn flush(&mut self, tracker: &TopKTracker, stat_delta: (u64, u64, u64)) {
        let (k, d, f) = stat_delta;
        self.kept.inc(k);
        self.dropped.inc(d);
        self.filtered.inc(f);
        let ev = tracker.evictions();
        self.evictions.inc(ev - self.prev_evictions);
        self.prev_evictions = ev;
        self.monitored.set(tracker.len() as f64);
        self.min_count.set(tracker.min_count() as f64);
        self.error_bound.set(tracker.error_bound() as f64);
    }
}

/// The periodic `meta` self-report: every `interval_us` of observed time
/// it snapshots the registry and renders the *delta* since the previous
/// report as a TSV window on the same path as the data files
/// ([`crate::tsv::write_meta_window`]).
///
/// Sans-io: the caller drives `tick` with a clock reading and writes the
/// returned bytes wherever windows go (a file per report in `dnsobs`).
#[derive(Debug)]
pub struct MetaReporter {
    registry: Registry,
    interval_us: u64,
    last: Option<(u64, Snapshot)>,
    reports: u64,
}

impl MetaReporter {
    /// A reporter emitting one meta window per `interval_us`.
    pub fn new(registry: Registry, interval_us: u64) -> MetaReporter {
        MetaReporter {
            registry,
            interval_us: interval_us.max(1),
            last: None,
            reports: 0,
        }
    }

    /// Number of reports emitted so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Advance to `now_us`. Returns the rendered meta TSV window when a
    /// full interval has elapsed since the last report (the first call
    /// only arms the baseline snapshot).
    pub fn tick(&mut self, now_us: u64) -> Option<Vec<u8>> {
        match &self.last {
            None => {
                self.last = Some((now_us, self.registry.snapshot(now_us)));
                None
            }
            Some((at, baseline)) if now_us.saturating_sub(*at) >= self.interval_us => {
                let snap = self.registry.snapshot(now_us);
                let delta = baseline.delta(&snap);
                let start = *at as f64 / 1e6;
                let length = (now_us - at) as f64 / 1e6;
                let mut bytes = Vec::new();
                crate::tsv::write_meta_window(&mut bytes, start, length, &delta.meta_rows())
                    .expect("writing to a Vec cannot fail");
                self.last = Some((now_us, snap));
                self.reports += 1;
                Some(bytes)
            }
            Some(_) => None,
        }
    }

    /// Force a final report covering the time since the last one (used on
    /// shutdown so the tail interval is not lost). Returns `None` if no
    /// baseline was ever armed or no time has passed.
    pub fn finish(&mut self, now_us: u64) -> Option<Vec<u8>> {
        let (at, baseline) = self.last.take()?;
        if now_us <= at {
            return None;
        }
        let snap = self.registry.snapshot(now_us);
        let delta = baseline.delta(&snap);
        let mut bytes = Vec::new();
        crate::tsv::write_meta_window(
            &mut bytes,
            at as f64 / 1e6,
            (now_us - at) as f64 / 1e6,
            &delta.meta_rows(),
        )
        .expect("writing to a Vec cannot fail");
        self.reports += 1;
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_metrics_register_one_tracker_handle_per_dataset() {
        let r = Registry::new();
        let m = FoldMetrics::register(&r, &[Dataset::SrvIp, Dataset::Qtype]);
        assert_eq!(m.trackers.len(), 2);
        m.ingested.inc(5);
        m.trackers[1].kept.inc(3);
        let snap = r.snapshot(0);
        assert_eq!(snap.counter("pipeline_ingested_total"), 5);
        assert_eq!(snap.counter("pipeline_kept_total{dataset=\"qtype\"}"), 3);
        assert!(snap
            .histogram("pipeline_window_seconds{stage=\"fold\"}")
            .is_some());
    }

    #[test]
    fn tracker_metrics_flush_is_delta_based() {
        use crate::features::FeatureConfig;
        let r = Registry::new();
        let mut fold = FoldMetrics::register(&r, &[Dataset::Qtype]);
        let tracker = TopKTracker::new(Dataset::Qtype, 8, FeatureConfig::default(), false);
        fold.trackers[0].flush(&tracker, (10, 2, 1));
        fold.trackers[0].flush(&tracker, (5, 0, 0));
        let snap = r.snapshot(0);
        let labels = "{dataset=\"qtype\"}";
        assert_eq!(snap.counter(&format!("pipeline_kept_total{labels}")), 15);
        assert_eq!(snap.counter(&format!("pipeline_dropped_total{labels}")), 2);
        assert_eq!(snap.counter(&format!("topk_evictions_total{labels}")), 0);
    }

    #[test]
    fn meta_reporter_emits_interval_deltas() {
        let r = Registry::new();
        let c = r.counter("pipeline_ingested_total");
        let mut rep = MetaReporter::new(r.clone(), 1_000_000);
        assert!(rep.tick(0).is_none(), "first tick arms the baseline");
        c.inc(7);
        assert!(rep.tick(500_000).is_none(), "interval not elapsed");
        let bytes = rep.tick(1_000_000).expect("interval elapsed");
        let (start, length, rows) = crate::tsv::read_meta_window(&bytes[..]).unwrap();
        assert_eq!(start, 0.0);
        assert_eq!(length, 1.0);
        assert_eq!(
            rows.iter()
                .find(|(k, _)| k == "pipeline_ingested_total")
                .map(|(_, v)| *v),
            Some(7.0)
        );
        // Next interval reports only what happened inside it.
        c.inc(3);
        let bytes = rep.tick(2_000_000).expect("second interval");
        let (_, _, rows) = crate::tsv::read_meta_window(&bytes[..]).unwrap();
        assert_eq!(
            rows.iter()
                .find(|(k, _)| k == "pipeline_ingested_total")
                .map(|(_, v)| *v),
            Some(3.0)
        );
        assert_eq!(rep.reports(), 2);
    }

    #[test]
    fn meta_reporter_finish_covers_the_tail() {
        let r = Registry::new();
        let c = r.counter("x_total");
        let mut rep = MetaReporter::new(r.clone(), 60_000_000);
        rep.tick(0);
        c.inc(4);
        let bytes = rep.finish(2_500_000).expect("tail report");
        let (start, length, rows) = crate::tsv::read_meta_window(&bytes[..]).unwrap();
        assert_eq!(start, 0.0);
        assert_eq!(length, 2.5);
        assert_eq!(rows, vec![("x_total".to_string(), 4.0)]);
        assert!(rep.finish(3_000_000).is_none(), "baseline consumed");
    }
}
