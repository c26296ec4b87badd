//! The assembled Observatory (steps B–F of the paper's Figure 1): one
//! single-threaded fold, summarize → track → window-dump.
//!
//! The fold is written once, in `Fold`: the trackers, the digest they
//! share, the per-window `kept/dropped/filtered` deltas, telemetry, the
//! trace ring, and the one [`WindowClock`]. It has two renderings.
//! [`Observatory`] dumps each closed window as TSV rows; `simulate` and
//! `collect --out` run it, and every byte oracle compares against it.
//! [`crate::StateExporter`] exports each closed window as sketch state for
//! the federated tier. Attach a [`Registry`] (`with_registry`) and either
//! reports what it folded; attach a [`TraceRing`] (`with_trace`) and each
//! window leaves events keyed by its start.

use crate::features::{FeatureConfig, FoldDigest};
use crate::keys::Dataset;
use crate::metrics::FoldMetrics;
use crate::summarize::TxSummary;
use crate::timeseries::{TimeSeriesStore, WindowDump};
use crate::topk::TopKTracker;
use psl::Psl;
use pubsub::window_id_us;
use simnet::Transaction;
use std::time::Instant;
use telemetry::trace::{TraceEvent, TraceKind, TraceRing, NO_SOURCE};
use telemetry::Registry;

/// Observatory configuration.
#[derive(Debug, Clone)]
pub struct ObservatoryConfig {
    /// Datasets to track, with their top-k capacities.
    pub datasets: Vec<(Dataset, usize)>,
    /// Window length in seconds (the paper uses 60).
    pub window_secs: f64,
    /// Sketch sizing for per-object features.
    pub feature_cfg: FeatureConfig,
    /// Use the Bloom eviction gate (paper §2.2's optional filter).
    pub bloom_gate: bool,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 10_000)],
            window_secs: 60.0,
            feature_cfg: FeatureConfig::default(),
            bloom_gate: true,
        }
    }
}

/// Cuts stream time into windows that start at multiples of the window
/// length, like the paper's minute files: every sensor, collector and
/// rendering agrees on a window without coordinating. The fold compares
/// windows by integer index, so a closed window can never re-open.
#[derive(Debug, Clone, Copy)]
pub struct WindowClock(
    /// Window length, seconds.
    pub f64,
);

impl WindowClock {
    /// Index of the window holding `t`: the `k` with `start(k) ≤ t <
    /// start(k + 1)`. The workspace's one time-to-window formula.
    pub fn index(&self, t: f64) -> i64 {
        let k = (t / self.0).floor() as i64;
        // `t / w` can round across a boundary: settle on the window whose
        // span holds `t`.
        match (self.start(k) > t, self.start(k.saturating_add(1)) <= t) {
            (true, _) => k.saturating_sub(1),
            (_, true) => k.saturating_add(1),
            _ => k,
        }
    }

    /// Start of window `index`, in seconds.
    pub fn start(&self, index: i64) -> f64 {
        index as f64 * self.0
    }
}

/// The fold both renderings share: summarize → track, cut by one
/// [`WindowClock`]. A rendering passes a `close` callback that turns the
/// closing window into its output while the trackers still hold it.
pub(crate) struct Fold {
    pub(crate) cfg: ObservatoryConfig,
    pub(crate) psl: Psl,
    pub(crate) trackers: Vec<TopKTracker>,
    /// The current summary's digest, shared by every tracker.
    digest: FoldDigest,
    /// Stats captured at the previous window boundary, per tracker.
    prev_stats: Vec<(u64, u64, u64)>,
    pub(crate) clock: WindowClock,
    /// Index of the open window. It only grows: a summary at or before it
    /// folds into it.
    open: Option<i64>,
    pub(crate) ingested: u64,
    /// `ingested` when the open window opened, and the wall instant.
    opened: (u64, Instant),
    /// Telemetry, once a registry is attached (see [`FoldMetrics`]).
    pub(crate) metrics: Option<FoldMetrics>,
    pub(crate) trace: TraceRing,
    pub(crate) now_us: u64,
    /// Stage of this rendering's trace events.
    stage: &'static str,
    /// Source id on its trace events: the upstream id of a state
    /// rendering, [`NO_SOURCE`] for rows.
    pub(crate) source: u64,
}

impl Fold {
    pub(crate) fn new(cfg: ObservatoryConfig, stage: &'static str, source: u64) -> Fold {
        Fold {
            psl: Psl::embedded(),
            trackers: (cfg.datasets.iter())
                .map(|&(ds, k)| TopKTracker::new(ds, k, cfg.feature_cfg, cfg.bloom_gate))
                .collect(),
            digest: FoldDigest::default(),
            prev_stats: vec![(0, 0, 0); cfg.datasets.len()],
            clock: WindowClock(cfg.window_secs),
            open: None,
            cfg,
            ingested: 0,
            opened: (0, Instant::now()),
            metrics: None,
            trace: TraceRing::disabled(),
            now_us: 0,
            stage,
            source,
        }
    }

    /// Start of the open window, if any.
    pub(crate) fn open_start(&self) -> Option<f64> {
        self.open.map(|k| self.clock.start(k))
    }

    /// Fold one summary into the window holding its time. When that
    /// opens a new window, `close` first renders the one it closes.
    pub(crate) fn ingest(&mut self, summary: &TxSummary, close: impl FnOnce(&mut Fold, f64)) {
        let k = self.clock.index(summary.time);
        if self.open.is_none_or(|open| k > open) {
            if let Some(closed) = self.open.replace(k) {
                close(self, self.clock.start(closed));
            }
            self.opened = (self.ingested, Instant::now());
            self.record(TraceKind::Open, self.clock.start(k), 0);
        }
        self.ingested += 1;
        self.digest.load(summary);
        for t in &mut self.trackers {
            t.observe_digest(summary, &self.digest);
        }
        if let Some(m) = &self.metrics {
            m.ingested.inc(1);
        }
    }

    /// The feed is over: `close` renders the open window, if any.
    pub(crate) fn finish(&mut self, close: impl FnOnce(&mut Fold, f64)) {
        if let Some(open) = self.open {
            close(self, self.clock.start(open));
        }
    }

    /// Close the open window: each tracker, with its window's
    /// `(kept, dropped, filtered)` delta, goes to telemetry and to
    /// `render`, which resets its features. Returns the window's summaries.
    pub(crate) fn close(
        &mut self,
        mut render: impl FnMut(&mut TopKTracker, (u64, u64, u64)),
    ) -> u64 {
        for (i, t) in self.trackers.iter_mut().enumerate() {
            let (kept, dropped, filtered) = t.stats();
            let (pk, pd, pf) = std::mem::replace(&mut self.prev_stats[i], t.stats());
            let delta = (kept - pk, dropped - pd, filtered - pf);
            if let Some(m) = &mut self.metrics {
                m.trackers[i].flush(t, delta);
            }
            render(t, delta);
        }
        if let Some(m) = &self.metrics {
            m.windows.inc(1);
            m.window_seconds
                .record(self.opened.1.elapsed().as_secs_f64());
        }
        self.ingested - self.opened.0
    }

    /// Record one trace event of window `start`, keyed by the window id
    /// the federation wire uses, so a window's provenance can be followed
    /// from the fold through the federation tier with one id.
    pub(crate) fn record(&self, kind: TraceKind, start: f64, value: u64) {
        self.trace.record(
            TraceEvent::new(self.now_us, self.stage, kind)
                .window(window_id_us(start))
                .source(self.source)
                .value(value),
        );
    }
}

/// The rows rendering of the fold: each closed window becomes one
/// [`WindowDump`] per dataset and leaves an Open, a Close (value: its
/// summaries) and a Seal (value: its rows) in stage `fold`.
pub struct Observatory {
    fold: Fold,
    store: TimeSeriesStore,
}

impl Observatory {
    /// Build from config.
    pub fn new(cfg: ObservatoryConfig) -> Observatory {
        Observatory {
            fold: Fold::new(cfg, "fold", NO_SOURCE),
            store: TimeSeriesStore::new(),
        }
    }

    /// Report into `registry`: `pipeline_ingested_total` after every
    /// fold, and per closed window `pipeline_windows_total`,
    /// `pipeline_window_seconds`, `pipeline_{kept,dropped,filtered}_total`
    /// and the `topk_*` tracker gauges.
    pub fn with_registry(mut self, registry: Registry) -> Observatory {
        self.fold.metrics = Some(FoldMetrics::register(&registry, &self.fold.cfg.datasets));
        self
    }

    /// Attach a trace ring; window ids are the window start in µs, as on
    /// the federation wire. Sans-io: pair with
    /// [`Observatory::set_now_us`] to timestamp events.
    pub fn with_trace(mut self, ring: TraceRing) -> Observatory {
        self.fold.trace = ring;
        self
    }

    /// Advance the fold's notion of time for trace timestamps.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.fold.now_us = now_us;
    }

    /// Total transactions ingested.
    pub fn ingested(&self) -> u64 {
        self.fold.ingested
    }

    /// Ingest one simulator transaction (structured fast path).
    pub fn ingest(&mut self, tx: &Transaction) {
        let summary = TxSummary::from_transaction(tx, &self.fold.psl);
        self.ingest_summary(summary);
    }

    /// Ingest one transaction from raw captured packets; silently drops
    /// unparseable input (the preprocessing filter).
    pub fn ingest_packets(
        &mut self,
        query_pkt: &[u8],
        response_pkt: Option<&[u8]>,
        time: f64,
        contributor: u16,
        delay_ms: f64,
    ) {
        let psl = &self.fold.psl;
        if let Some(summary) =
            TxSummary::from_packets(query_pkt, response_pkt, time, contributor, delay_ms, psl)
        {
            self.ingest_summary(summary);
        }
    }

    /// Ingest a pre-built summary.
    pub fn ingest_summary(&mut self, summary: TxSummary) {
        let (fold, store) = (&mut self.fold, &mut self.store);
        fold.ingest(&summary, |fold, start| dump_window(fold, store, start));
    }

    /// Flush the final partial window and return the collected store.
    pub fn finish(mut self) -> TimeSeriesStore {
        let (fold, store) = (&mut self.fold, &mut self.store);
        fold.finish(|fold, start| dump_window(fold, store, start));
        self.store
    }

    /// Take the windows completed since the last call, leaving the store
    /// empty: a long run that writes windows out as they close holds
    /// trackers, not every window it ever closed.
    pub fn take_windows(&mut self) -> Vec<WindowDump> {
        self.store.take_windows()
    }
}

/// Dump closing window `start` into `store`, one [`WindowDump`] per
/// tracker.
fn dump_window(fold: &mut Fold, store: &mut TimeSeriesStore, start: f64) {
    let (length, mut rows) = (fold.cfg.window_secs, 0);
    let summaries = fold.close(|t, (kept, dropped, filtered)| {
        let dumped = t.dump(start);
        rows += dumped.len() as u64;
        store.push(WindowDump {
            dataset: t.dataset().name().to_string(),
            start,
            length,
            rows: dumped,
            kept,
            dropped,
            filtered,
        });
    });
    fold.record(TraceKind::Close, start, summaries);
    fold.record(TraceKind::Seal, start, rows);
}

/// What is left of the threaded pipeline: the entry point obsbench's
/// per-layer `core.pipeline_tx_per_s` row calls. It is one
/// [`Observatory`] fold; `workers` is ignored.
pub struct ThreadedPipeline(ObservatoryConfig);

impl ThreadedPipeline {
    /// A fold over `cfg`.
    pub fn new(cfg: ObservatoryConfig, _workers: usize) -> ThreadedPipeline {
        ThreadedPipeline(cfg)
    }

    /// Fold `summaries` and return every window.
    pub fn run_summaries(&self, summaries: impl IntoIterator<Item = TxSummary>) -> TimeSeriesStore {
        let mut obs = Observatory::new(self.0.clone());
        summaries.into_iter().for_each(|s| obs.ingest_summary(s));
        obs.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimConfig, Simulation};

    fn small_cfg() -> ObservatoryConfig {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 500), (Dataset::Qtype, 32)],
            window_secs: 1.0,
            ..ObservatoryConfig::default()
        }
    }

    fn summaries(secs: f64) -> Vec<TxSummary> {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.collect(secs)
            .iter()
            .map(|tx| TxSummary::from_transaction(tx, &psl))
            .collect()
    }

    #[test]
    fn windows_are_produced() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(3.5, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        // 3 full windows + final partial, × 2 datasets.
        let srvip = store.dataset(Dataset::SrvIp).len();
        assert!((3..=4).contains(&srvip), "srvip windows: {srvip}");
        assert_eq!(store.windows().len() % srvip, 0);
    }

    #[test]
    fn window_rows_have_traffic() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(2.5, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        let windows = store.dataset(Dataset::Qtype);
        let with_rows = windows.iter().filter(|w| !w.rows.is_empty()).count();
        assert!(with_rows >= 1);
        for w in &windows {
            for (key, row) in &w.rows {
                assert!(!key.is_empty());
                assert!(row.hits > 0);
            }
        }
    }

    #[test]
    fn kept_dropped_are_per_window() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(3.5, &mut |tx| obs.ingest(tx));
        let ingested = obs.ingested();
        let store = obs.finish();
        let total_kept: u64 = store
            .dataset(Dataset::SrvIp)
            .iter()
            .map(|w| w.kept + w.dropped + w.filtered)
            .sum();
        assert_eq!(total_kept, ingested, "per-window stats must sum to total");
    }

    #[test]
    fn packet_path_matches_structured_path() {
        let mut sim1 = Simulation::from_config(SimConfig::small());
        let mut obs1 = Observatory::new(small_cfg());
        sim1.run(1.5, &mut |tx| obs1.ingest(tx));

        let mut sim2 = Simulation::from_config(SimConfig::small());
        let mut obs2 = Observatory::new(small_cfg());
        sim2.run(1.5, &mut |tx| {
            let (q, r) = tx.to_packets();
            obs2.ingest_packets(&q, r.as_deref(), tx.time, tx.contributor, tx.delay_ms);
        });

        let s1 = obs1.finish();
        let s2 = obs2.finish();
        assert_eq!(s1.windows().len(), s2.windows().len());
        for (w1, w2) in s1.windows().iter().zip(s2.windows()) {
            assert_eq!(w1.rows.len(), w2.rows.len(), "{} window", w1.dataset);
            assert_eq!(w1.total_hits(), w2.total_hits());
        }
    }

    /// The obsbench entry point is the reference fold, window for window.
    #[test]
    fn run_summaries_matches_ingest_summary() {
        let summaries = summaries(2.0);
        let mut obs = Observatory::new(small_cfg());
        for s in summaries.clone() {
            obs.ingest_summary(s);
        }
        let single = obs.finish();

        let shim = ThreadedPipeline::new(small_cfg(), 2).run_summaries(summaries);
        assert_eq!(single.windows().len(), shim.windows().len());
        for (a, b) in single.windows().iter().zip(shim.windows()) {
            assert_eq!(a.dataset, b.dataset);
            assert_eq!(a.start, b.start);
            assert_eq!(
                (a.kept, a.dropped, a.filtered),
                (b.kept, b.dropped, b.filtered)
            );
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }
    }

    /// A summary exactly one window after the first, where `(t1 - t0) /
    /// w` rounds below 1 in f64 (`(0.3 + 2.0) - 0.3 < 2.0`, the trap of
    /// the clock that anchored windows at the first summary), opens the
    /// next window: both renderings close the first window once, each
    /// window at its own multiple of `w`.
    #[test]
    fn boundary_summary_never_reopens_the_closed_window() {
        let (t0, w) = (0.3_f64, 2.0_f64);
        let t1 = t0 + w;
        assert!(
            t1 >= t0 + w && ((t1 - t0) / w).floor() == 0.0,
            "inputs must trip the rounding"
        );
        let mut summaries: Vec<TxSummary> = summaries(0.2).into_iter().take(2).collect();
        summaries[0].time = t0;
        summaries[1].time = t1;
        let cfg = ObservatoryConfig {
            window_secs: w,
            ..small_cfg()
        };
        let mut obs = Observatory::new(cfg.clone());
        let mut exporter = crate::StateExporter::new(cfg, 0, 0);
        let mut states = Vec::new();
        for s in summaries {
            obs.ingest_summary(s.clone());
            exporter.ingest_summary(s, &mut states);
        }
        exporter.finish(&mut states);
        let store = obs.finish();
        let rows: Vec<(f64, u64)> = (store.dataset(Dataset::Qtype).iter())
            .map(|w| (w.start, w.kept + w.dropped + w.filtered))
            .collect();
        assert_eq!(rows, [(0.0, 1), (2.0, 1)], "one dump per window");
        let exported: Vec<(f64, u64)> = (states.iter())
            .filter(|ws| ws.topk.dataset == "qtype")
            .map(|ws| (ws.start, ws.topk.kept + ws.topk.dropped + ws.topk.filtered))
            .collect();
        assert_eq!(exported, rows, "one export per window");
    }

    /// Every window's start lies in that window and the float just below
    /// it in the previous one, even where `t / w` rounds across the
    /// boundary (`w` = 0.1, 0.3, 1/3 are not exact in binary).
    #[test]
    fn window_clock_puts_each_start_in_its_own_window() {
        for w in [0.1, 0.3, 1.0 / 3.0, 1.0, 3.0, 60.0] {
            let clock = WindowClock(w);
            for k in -50..5_000 {
                let start = clock.start(k);
                assert_eq!(clock.index(start), k, "start of {k} at w={w}");
                assert_eq!(clock.index(start.next_down()), k - 1, "below {k} at w={w}");
            }
        }
    }

    /// `pipeline_ingested_total` is bumped after the fold, so a load
    /// generator that closes its loop on it is held to the trackers'
    /// real pace: the counter never stands for a summary the trackers
    /// have not folded, however the windows fall.
    #[test]
    fn ingested_counter_never_runs_ahead_of_the_fold() {
        let registry = Registry::new();
        let counter = registry.counter("pipeline_ingested_total");
        let mut obs = Observatory::new(small_cfg()).with_registry(registry);
        for s in summaries(2.0) {
            obs.ingest_summary(s);
            assert_eq!(counter.value(), obs.ingested());
        }
    }

    /// An empty input stream yields an empty store and closes no window.
    #[test]
    fn empty_input_produces_empty_store() {
        let registry = Registry::new();
        let store = Observatory::new(small_cfg())
            .with_registry(registry.clone())
            .finish();
        assert!(store.windows().is_empty());
        assert_eq!(registry.snapshot(0).counter("pipeline_windows_total"), 0);
    }

    /// The telemetry counters must reconcile exactly with the store the
    /// fold produced: ingested matches the input, one window close per
    /// produced window, and each dataset's kept/dropped/filtered counters
    /// equal the per-window TSV totals.
    #[test]
    fn telemetry_reconciles_with_store() {
        let registry = Registry::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg()).with_registry(registry.clone());
        sim.run(2.0, &mut |tx| obs.ingest(tx));
        let total = obs.ingested();
        let store = obs.finish();
        let snap = registry.snapshot(0);
        assert_eq!(snap.counter("pipeline_ingested_total"), total);
        assert_eq!(
            snap.counter("pipeline_windows_total") as usize,
            store.dataset(Dataset::SrvIp).len(),
            "one close per produced window"
        );
        for ds in [Dataset::SrvIp, Dataset::Qtype] {
            let from_store: (u64, u64, u64) =
                store.dataset(ds).iter().fold((0, 0, 0), |(k, d, f), w| {
                    (k + w.kept, d + w.dropped, f + w.filtered)
                });
            let sel = |what: &str| {
                snap.counter(&format!(
                    "pipeline_{what}_total{{dataset=\"{}\"}}",
                    ds.name()
                ))
            };
            assert_eq!(
                (sel("kept"), sel("dropped"), sel("filtered")),
                from_store,
                "{} counters must mirror the TSV totals",
                ds.name()
            );
        }
        let monitored = snap.gauge("topk_monitored{dataset=\"srvip\"}");
        assert!(monitored > 0.0, "tracker gauges flushed at the close");
    }

    /// With a trace ring attached, every window leaves one Open, one
    /// Close and one Seal: the Close values sum to the input size, the
    /// Seal values to the rows dumped, every id is a produced window's
    /// start and every stamp the caller's clock. Tracing must not change
    /// the output.
    #[test]
    fn flight_recorder_captures_window_provenance() {
        use telemetry::trace::parse_dump;
        use telemetry::FlightRecorder;

        let summaries = summaries(2.0);
        let mut obs = Observatory::new(small_cfg());
        for s in summaries.clone() {
            obs.ingest_summary(s);
        }
        let plain = obs.finish();

        let recorder = FlightRecorder::new();
        let mut obs = Observatory::new(small_cfg()).with_trace(recorder.ring("pipeline"));
        obs.set_now_us(7);
        for s in summaries.clone() {
            obs.ingest_summary(s);
        }
        let traced = obs.finish();

        // Tracing is observability, never behaviour.
        assert_eq!(plain.windows().len(), traced.windows().len());
        for (a, b) in plain.windows().iter().zip(traced.windows()) {
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }

        let starts: Vec<u64> = plain
            .dataset(Dataset::SrvIp)
            .iter()
            .map(|w| window_id_us(w.start))
            .collect();
        let rows = parse_dump(&recorder.dump());
        let of = |kind: TraceKind| {
            let events: Vec<_> = rows.iter().filter(|r| r.kind == kind).collect();
            let ids: Vec<u64> = events.iter().map(|r| r.window_us).collect();
            assert_eq!(ids, starts, "one {kind:?} per window, in order");
            assert!(events
                .iter()
                .all(|r| r.at_us == 7 && r.subsystem == "pipeline"));
            events.iter().map(|r| r.value).sum::<u64>()
        };
        of(TraceKind::Open);
        assert_eq!(of(TraceKind::Close), summaries.len() as u64);
        let dumped: usize = plain.windows().iter().map(|w| w.rows.len()).sum();
        assert_eq!(of(TraceKind::Seal), dumped as u64);
    }

    /// The window-residency histogram records one sample per produced
    /// window even with tracing disabled.
    #[test]
    fn window_residency_histogram_fills_without_a_recorder() {
        let registry = Registry::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg()).with_registry(registry.clone());
        sim.run(2.0, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        let snap = registry.snapshot(0);
        let h = snap
            .histogram("pipeline_window_seconds{stage=\"fold\"}")
            .expect("window residency histogram registered");
        assert_eq!(h.count as usize, store.dataset(Dataset::SrvIp).len());
    }

    #[test]
    fn gap_in_traffic_does_not_break_windows() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(1.2, &mut |tx| obs.ingest(tx));
        sim.skip_to(10.0);
        sim.run(1.2, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        // Windows must align to the 1 s grid despite the jump.
        for w in store.windows() {
            assert!(w.length == 1.0);
        }
        assert!(store.windows().iter().any(|w| w.start >= 9.0));
    }
}
