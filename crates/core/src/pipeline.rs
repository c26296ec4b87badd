//! The assembled Observatory (steps B–F of the paper's Figure 1): one
//! single-threaded fold, summarize → track → window-dump.
//!
//! [`Observatory`] is the workspace's one fold core for TSV windows:
//! `simulate` and `collect --out` run it on their own thread and write
//! each window as it closes, and every byte-equivalence oracle compares
//! against it. Attach a [`Registry`] ([`Observatory::with_registry`]) and
//! it reports what it folded; attach a [`TraceRing`]
//! ([`Observatory::with_trace`]) and each window leaves an Open, a Close
//! and a Seal event keyed by its start.

use crate::features::{FeatureConfig, FoldDigest};
use crate::keys::Dataset;
use crate::metrics::FoldMetrics;
use crate::summarize::TxSummary;
use crate::timeseries::{TimeSeriesStore, WindowDump};
use crate::topk::TopKTracker;
use psl::Psl;
use simnet::Transaction;
use std::time::Instant;
use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::Registry;

/// Stage name on the fold's trace events.
const STAGE: &str = "fold";

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

/// The single-threaded stream processor: summarize → track → window-dump.
pub struct Observatory {
    cfg: ObservatoryConfig,
    psl: Psl,
    trackers: Vec<TopKTracker>,
    store: TimeSeriesStore,
    window_start: Option<f64>,
    /// Stats captured at the previous window boundary, per tracker.
    prev_stats: Vec<(u64, u64, u64)>,
    ingested: u64,
    /// `ingested` when the open window opened, and the wall instant.
    opened: (u64, Instant),
    /// The current summary's digest, shared by every tracker.
    digest: FoldDigest,
    metrics: Option<FoldMetrics>,
    trace: TraceRing,
    now_us: u64,
}

impl Observatory {
    /// Build from config.
    pub fn new(cfg: ObservatoryConfig) -> Observatory {
        let trackers = cfg
            .datasets
            .iter()
            .map(|&(ds, k)| TopKTracker::new(ds, k, cfg.feature_cfg, cfg.bloom_gate))
            .collect::<Vec<_>>();
        let prev_stats = vec![(0, 0, 0); trackers.len()];
        Observatory {
            cfg,
            psl: Psl::embedded(),
            trackers,
            store: TimeSeriesStore::new(),
            window_start: None,
            prev_stats,
            ingested: 0,
            opened: (0, Instant::now()),
            digest: FoldDigest::default(),
            metrics: None,
            trace: TraceRing::disabled(),
            now_us: 0,
        }
    }

    /// Report into `registry`: `pipeline_ingested_total` after every
    /// fold, and per closed window `pipeline_windows_total`,
    /// `pipeline_window_seconds`, `pipeline_{kept,dropped,filtered}_total`
    /// and the `topk_*` tracker gauges.
    pub fn with_registry(mut self, registry: Registry) -> Observatory {
        let datasets: Vec<Dataset> = self.cfg.datasets.iter().map(|&(ds, _)| ds).collect();
        self.metrics = Some(FoldMetrics::register(&registry, &datasets));
        self
    }

    /// Attach a trace ring: each window records an Open, a Close (value:
    /// its summaries) and a Seal (value: its rows), keyed by the window
    /// start in µs as on the federation wire. Sans-io: pair with
    /// [`Observatory::set_now_us`] to timestamp events.
    pub fn with_trace(mut self, ring: TraceRing) -> Observatory {
        self.trace = ring;
        self
    }

    /// Advance the fold's notion of time for trace timestamps.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Total transactions ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingest one simulator transaction (structured fast path).
    pub fn ingest(&mut self, tx: &Transaction) {
        let summary = TxSummary::from_transaction(tx, &self.psl);
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
        if let Some(summary) = TxSummary::from_packets(
            query_pkt,
            response_pkt,
            time,
            contributor,
            delay_ms,
            &self.psl,
        ) {
            self.ingest_summary(summary);
        }
    }

    /// Ingest a pre-built summary.
    pub fn ingest_summary(&mut self, summary: TxSummary) {
        match self.window_start {
            None => self.open_window(summary.time),
            Some(start) if summary.time >= start + self.cfg.window_secs => {
                self.dump_window(start);
                self.open_window(next_window_start(start, summary.time, self.cfg.window_secs));
            }
            Some(_) => {}
        }
        self.ingested += 1;
        self.digest.load(&summary);
        for t in &mut self.trackers {
            t.observe_digest(&summary, &self.digest);
        }
        if let Some(m) = &self.metrics {
            m.ingested.inc(1);
        }
    }

    fn open_window(&mut self, start: f64) {
        self.window_start = Some(start);
        self.opened = (self.ingested, Instant::now());
        self.record(TraceKind::Open, start, 0);
    }

    fn dump_window(&mut self, start: f64) {
        let mut rows = 0;
        for (i, t) in self.trackers.iter_mut().enumerate() {
            let dumped = t.dump(start);
            let (kept, dropped, filtered) = t.stats();
            let (pk, pd, pf) = self.prev_stats[i];
            self.prev_stats[i] = (kept, dropped, filtered);
            let delta = (kept - pk, dropped - pd, filtered - pf);
            if let Some(m) = &mut self.metrics {
                m.trackers[i].flush(t, delta);
            }
            rows += dumped.len() as u64;
            self.store.push(WindowDump {
                dataset: t.dataset().name().to_string(),
                start,
                length: self.cfg.window_secs,
                rows: dumped,
                kept: delta.0,
                dropped: delta.1,
                filtered: delta.2,
            });
        }
        if let Some(m) = &self.metrics {
            m.windows.inc(1);
            m.window_seconds
                .record(self.opened.1.elapsed().as_secs_f64());
        }
        self.record(TraceKind::Close, start, self.ingested - self.opened.0);
        self.record(TraceKind::Seal, start, rows);
    }

    fn record(&self, kind: TraceKind, start: f64, value: u64) {
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, STAGE, kind)
                    .window(window_id_us(start))
                    .value(value),
            );
        }
    }

    /// Flush the final partial window and return the collected store.
    pub fn finish(mut self) -> TimeSeriesStore {
        if let Some(start) = self.window_start {
            self.dump_window(start);
        }
        self.store
    }

    /// Borrow the store collected so far (completed windows only).
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Take the windows completed since the last call, leaving the store
    /// empty: a long run that writes windows out as they close holds
    /// trackers, not every window it ever closed.
    pub fn take_windows(&mut self) -> Vec<WindowDump> {
        self.store.take_windows()
    }
}

/// Start of the window containing `t`, given that the window opened at
/// `start` has just closed (`t >= start + w`). Always advances at least
/// one window: `(t - start) / w` can round below 1 while `t >= start + w`
/// holds, and re-opening the closed window would dump it twice.
fn next_window_start(start: f64, t: f64, w: f64) -> f64 {
    start + ((t - start) / w).floor().max(1.0) * w
}

/// Window ids on the trace: the window start in integer microseconds,
/// the same keying `sketchwire::AggregatorCore` uses for windows on the
/// wire — so a window's provenance can be followed from the fold
/// through the federation tier with one id.
pub(crate) fn window_id_us(start: f64) -> u64 {
    (start * 1e6).round() as u64
}

/// What is left of the threaded pipeline: the entry point obsbench's
/// per-layer `core.pipeline_tx_per_s` row calls. It is one
/// [`Observatory`] fold; `workers` is ignored.
pub struct ThreadedPipeline {
    cfg: ObservatoryConfig,
}

impl ThreadedPipeline {
    /// A fold over `cfg`.
    pub fn new(cfg: ObservatoryConfig, _workers: usize) -> ThreadedPipeline {
        ThreadedPipeline { cfg }
    }

    /// Fold `summaries` and return every window.
    pub fn run_summaries(&self, summaries: impl IntoIterator<Item = TxSummary>) -> TimeSeriesStore {
        let mut obs = Observatory::new(self.cfg.clone());
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

    /// A summary exactly one window after the first, at a start where
    /// `(t - start) / w` rounds below 1 (`(0.3 + 2.0) - 0.3 < 2.0` in
    /// f64), must open the *next* window — never re-open and re-dump the
    /// one just closed.
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
        let mut obs = Observatory::new(ObservatoryConfig {
            window_secs: w,
            ..small_cfg()
        });
        for s in summaries {
            obs.ingest_summary(s);
        }
        let store = obs.finish();
        let windows = store.dataset(Dataset::Qtype);
        let starts: Vec<f64> = windows.iter().map(|w| w.start).collect();
        assert_eq!(starts, [t0, t1], "one dump per window, each its own start");
        let seen: Vec<u64> = windows
            .iter()
            .map(|w| w.kept + w.dropped + w.filtered)
            .collect();
        assert_eq!(seen, [1, 1]);
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
