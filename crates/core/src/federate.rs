//! Federated aggregation (collector → aggregator tier).
//!
//! The paper's Observatory ends at one collector process. This module is
//! the collector side of the tier above it: instead of rendering TSV
//! rows locally, a forwarding collector exports its per-window *sketch
//! state* — Space-Saving counters with error terms, HLL registers,
//! feature accumulators — as [`WindowState`] items, and an aggregator
//! (`sketchwire::AggregatorCore`) merges N such streams into one global
//! view whose error bound is the sum of the per-collector bounds.
//!
//! [`StateExporter`] is the state rendering of the one fold in
//! [`crate::pipeline`]: the same trackers, cut by the same
//! [`crate::WindowClock`], so a collector's windows are the rows
//! rendering's windows, and collectors that start at different stream
//! times still agree on every window's identity. Each tracker is exported
//! whole: the cross-collector absent-key merge law is only valid against
//! a whole tracker's `min_count`.
//!
//! A forwarding collector ships each closed window's records as
//! [`sketchwire::Uplink::State`] items and then, in the same frame, a
//! [`sketchwire::Uplink::Closed`] watermark through
//! [`StateExporter::open_window`]: the aggregator seals a window the
//! moment every upstream has closed it, not when the next window's first
//! record arrives.

use crate::features::FeatureSet;
use crate::metrics::FoldMetrics;
use crate::pipeline::{Fold, ObservatoryConfig};
use crate::summarize::TxSummary;
use crate::timeseries::{reported, sort_rows, WindowDump};
use crate::topk::TopKTracker;
use crate::tsv;
use simnet::Transaction;
use sketchwire::{merge_chunks, GlobalWindow, StateError, TopKState, WindowState};
use std::io;
use std::path::Path;
use telemetry::trace::{TraceKind, TraceRing};
use telemetry::Registry;

/// Turns a summary stream into per-window [`WindowState`] items — the
/// collector half of the federated tier. Each window leaves an Open and
/// a Close (value: its chunks) in stage `exporter`, the upstream id as
/// their source.
pub struct StateExporter {
    fold: Fold,
    chunk_entries: usize,
    /// Summaries in this window or earlier are already in the durable
    /// store and are skipped on a resumed run.
    resume_through: Option<i64>,
    /// Summaries skipped by the resume frontier.
    resumed_skipped: u64,
}

impl StateExporter {
    /// Build an exporter for collector `upstream`. `chunk_entries` caps
    /// the keys per exported chunk (`0` = never chunk); large trackers
    /// are split with `TopKState::into_chunks` so every record stays
    /// under the transport frame cap.
    pub fn new(cfg: ObservatoryConfig, upstream: u64, chunk_entries: usize) -> StateExporter {
        StateExporter {
            fold: Fold::new(cfg, "exporter", upstream),
            chunk_entries: Some(chunk_entries).filter(|&n| n > 0).unwrap_or(usize::MAX),
            resume_through: None,
            resumed_skipped: 0,
        }
    }

    /// Rebuild an exporter from the newest durable window of a store —
    /// the crash-recovery path of `collect --store`.
    ///
    /// `states` are that window's records (every dataset, chunked or
    /// not) and `last_window_start` its start. Each tracker is
    /// restored from its serialized state (see [`TopKTracker::restore`]
    /// for why the rebuilt tracker equals the post-export one), and the
    /// resume frontier is set so replayed summaries belonging to the
    /// durable window — or anything earlier — are skipped, not
    /// double-counted. The per-tracker `kept`/`dropped`/`filtered`
    /// counters and the fold's boundary snapshot both restart at zero, so
    /// the *deltas* exported per window are unaffected by the restart.
    pub fn resume(
        cfg: ObservatoryConfig,
        upstream: u64,
        chunk_entries: usize,
        last_window_start: f64,
        states: &[WindowState],
    ) -> Result<StateExporter, StateError> {
        let mut exporter = StateExporter::new(cfg, upstream, chunk_entries);
        let fold = &mut exporter.fold;
        let datasets = &fold.cfg.datasets;
        if (states.iter()).any(|ws| datasets.iter().all(|(ds, _)| ds.name() != ws.topk.dataset)) {
            return Err(StateError::LayoutMismatch(
                "resume state has a dataset the config lacks",
            ));
        }
        for (tracker, &(ds, k)) in fold.trackers.iter_mut().zip(datasets) {
            let parts: Vec<&TopKState> = (states.iter())
                .filter(|ws| ws.topk.dataset == ds.name())
                .map(|ws| &ws.topk)
                .collect();
            if parts.is_empty() {
                return Err(StateError::LayoutMismatch("resume state missing a dataset"));
            }
            let whole = merge_chunks(&parts)?;
            if whole.capacity != k as u64 {
                return Err(StateError::LayoutMismatch(
                    "resume capacity differs from configured k",
                ));
            }
            *tracker = TopKTracker::restore(&whole, fold.cfg.feature_cfg, fold.cfg.bloom_gate)?;
        }
        exporter.resume_through = Some(exporter.fold.clock.index(last_window_start));
        Ok(exporter)
    }

    /// Report what the fold does into `registry`, as
    /// `Observatory::with_registry` does.
    pub fn with_registry(mut self, registry: Registry) -> StateExporter {
        self.fold.metrics = Some(FoldMetrics::register(&registry, &self.fold.cfg.datasets));
        self
    }

    /// Attach a trace ring; window ids are the ones the aggregator uses
    /// on the wire. Sans-io: pair with [`StateExporter::set_now_us`] to
    /// timestamp events.
    pub fn with_trace(mut self, ring: TraceRing) -> StateExporter {
        self.fold.trace = ring;
        self
    }

    /// Advance the exporter's notion of time for trace timestamps.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.fold.now_us = now_us;
    }

    /// Start of the window the fold has open, if any: every window
    /// before it is closed and exported. What a forwarding collector's
    /// watermark says (`sketchwire::Uplink::Closed`).
    pub fn open_window(&self) -> Option<f64> {
        self.fold.open_start()
    }

    /// Transactions skipped because they predate the resume frontier.
    pub fn resumed_skipped(&self) -> u64 {
        self.resumed_skipped
    }

    /// Ingest one simulator transaction; completed windows are appended
    /// to `out`.
    pub fn ingest(&mut self, tx: &Transaction, out: &mut Vec<WindowState>) {
        let summary = TxSummary::from_transaction(tx, &self.fold.psl);
        self.ingest_summary(summary, out);
    }

    /// Ingest a pre-built summary; completed windows are appended to
    /// `out`. Input must be time-ordered (the feed collector's merge
    /// guarantees this).
    pub fn ingest_summary(&mut self, summary: TxSummary, out: &mut Vec<WindowState>) {
        // Resumed runs replay the feed from before the crash; anything
        // already folded into the durable store is skipped (and counted),
        // never double-aggregated.
        let window = self.fold.clock.index(summary.time);
        if self.resume_through.is_some_and(|through| window <= through) {
            self.resumed_skipped += 1;
            return;
        }
        let (fold, chunks) = (&mut self.fold, self.chunk_entries);
        fold.ingest(&summary, |fold, start| {
            export_window(fold, chunks, start, out)
        });
    }

    /// Flush the final partial window and return how many transactions
    /// were ingested in total.
    pub fn finish(mut self, out: &mut Vec<WindowState>) -> u64 {
        let (fold, chunks) = (&mut self.fold, self.chunk_entries);
        fold.finish(|fold, start| export_window(fold, chunks, start, out));
        self.fold.ingested
    }
}

/// Export closing window `start` into `out`: every tracker's state with
/// its window's deltas, split into chunks of `chunk_entries` keys. A jump
/// of more than one window leaves a gap the aggregator's per-upstream
/// ledger counts.
fn export_window(fold: &mut Fold, chunk_entries: usize, start: f64, out: &mut Vec<WindowState>) {
    let (before, upstream, length) = (out.len(), fold.source, fold.cfg.window_secs);
    fold.close(|t, (kept, dropped, filtered)| {
        for topk in t
            .export_state(kept, dropped, filtered)
            .into_chunks(chunk_entries)
        {
            out.push(WindowState {
                upstream,
                start,
                length,
                topk,
            });
        }
    });
    fold.record(TraceKind::Close, start, (out.len() - before) as u64);
}

/// Render one merged sketch state into the [`WindowDump`] shape the
/// rows rendering produces — the same residency rule and row order, and
/// the capacity cap re-applied. Shared by the
/// aggregator's global render and the historical store's query path
/// (which renders windows of any compaction level through exactly this
/// function).
pub fn render_state(state: &TopKState, start: f64, length: f64) -> Result<WindowDump, StateError> {
    let mut rows = Vec::new();
    for e in &state.entries {
        // adds[0] is `hits` in the layout contract: per-window
        // traffic, not the cumulative Space-Saving count.
        let hits = e.features.adds.first().copied().unwrap_or(0);
        if reported(e.inserted_at, hits, start) {
            rows.push((e.key.clone(), FeatureSet::from_state(&e.features)?.row()));
        }
    }
    sort_rows(&mut rows);
    rows.truncate(state.capacity as usize);
    Ok(WindowDump {
        dataset: state.dataset.clone(),
        start,
        length,
        rows,
        kept: state.kept,
        dropped: state.dropped,
        filtered: state.filtered,
    })
}

/// Write one merged global window to `dir`, one [`render_state`] per
/// dataset, using the same file naming as the rows rendering
/// (`{dataset}-{start:05}.tsv`); returns the file count. A state that
/// cannot be rendered maps to [`io::ErrorKind::InvalidData`].
pub fn write_global(dir: &Path, gw: &GlobalWindow) -> io::Result<usize> {
    for state in &gw.datasets {
        let dump = render_state(state, gw.start, gw.length)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = dir.join(format!("{}-{:05}.tsv", dump.dataset, dump.start as u64));
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        tsv::write_window(&mut w, &dump)?;
    }
    Ok(gw.datasets.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Dataset;
    use crate::pipeline::Observatory;
    use psl::Psl;
    use pubsub::window_id_us;
    use simnet::{SimConfig, Simulation};
    use sketchwire::{merge_chunks, merge_topk, AggregatorConfig, AggregatorCore};
    use std::collections::BTreeMap;
    use telemetry::trace::TraceEvent;
    use telemetry::Registry;

    fn cfg(window: f64) -> ObservatoryConfig {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 500), (Dataset::Qtype, 64)],
            window_secs: window,
            bloom_gate: false,
            ..ObservatoryConfig::default()
        }
    }

    /// One collector's exported state, rendered back, is the rows
    /// rendering's dump, window for window: `dump` ≡ `render_state ∘
    /// export_state`, with the admission gate on and a feed whose first
    /// summary is not on a window boundary.
    #[test]
    fn single_exporter_roundtrips_to_local_dump() {
        let psl = Psl::embedded();
        let mut summaries = Vec::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(2.5, &mut |tx| {
            let mut s = TxSummary::from_transaction(tx, &psl);
            s.time += 0.37;
            summaries.push(s);
        });
        let gated = ObservatoryConfig {
            bloom_gate: true,
            ..cfg(1.0)
        };
        let mut exporter = StateExporter::new(gated.clone(), 7, 0);
        let mut obs = Observatory::new(gated);
        let mut states = Vec::new();
        for s in summaries {
            obs.ingest_summary(s.clone());
            exporter.ingest_summary(s, &mut states);
        }
        exporter.finish(&mut states);
        let store = obs.finish();
        assert!(!states.is_empty());

        let mut core = AggregatorCore::new(&AggregatorConfig::new(1));
        for ws in states {
            core.on_state(ws).expect("valid state");
        }
        let mut sealed = Vec::new();
        core.finish(&mut sealed);
        let mut rendered: Vec<WindowDump> = Vec::new();
        for gw in &sealed {
            for state in &gw.datasets {
                rendered.push(render_state(state, gw.start, gw.length).expect("render"));
            }
        }
        assert_eq!(rendered.len(), store.windows().len(), "the same windows");
        assert_eq!(
            store.windows()[0].start,
            0.0,
            "the first window is cut short"
        );
        for want in store.windows() {
            let got = rendered
                .iter()
                .find(|d| d.dataset == want.dataset && d.start == want.start)
                .unwrap_or_else(|| panic!("missing {}@{}", want.dataset, want.start));
            assert_eq!(got.kept, want.kept);
            assert_eq!(got.dropped, want.dropped);
            assert_eq!(got.filtered, want.filtered);
            // Compare the canonical TSV rendering: empty quartiles are
            // NaN, and NaN ≠ NaN would fail a direct row comparison.
            let bytes = |d: &WindowDump| {
                let mut b = Vec::new();
                tsv::write_window(&mut b, d).expect("write to Vec");
                b
            };
            assert_eq!(bytes(got), bytes(want), "{}@{}", want.dataset, want.start);
        }
    }

    /// The state rendering reports into a registry as the rows rendering
    /// does: one close per exported window, and each dataset's counters
    /// equal the summed `kept/dropped/filtered` of its exported records.
    #[test]
    fn telemetry_reconciles_with_exported_states() {
        let registry = Registry::new();
        let mut exporter = StateExporter::new(cfg(1.0), 2, 0).with_registry(registry.clone());
        let mut states = Vec::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(2.5, &mut |tx| exporter.ingest(tx, &mut states));
        let total = exporter.finish(&mut states);
        let snap = registry.snapshot(0);
        assert_eq!(snap.counter("pipeline_ingested_total"), total);
        let windows: std::collections::BTreeSet<u64> =
            states.iter().map(|ws| window_id_us(ws.start)).collect();
        assert!(windows.len() >= 3, "{windows:?}");
        assert_eq!(snap.counter("pipeline_windows_total"), windows.len() as u64);
        for ds in [Dataset::SrvIp, Dataset::Qtype] {
            let exported = (states.iter())
                .filter(|ws| ws.topk.dataset == ds.name())
                .fold((0, 0, 0), |(k, d, f), ws| {
                    (k + ws.topk.kept, d + ws.topk.dropped, f + ws.topk.filtered)
                });
            let sel = |what: &str| {
                let labels = format!("{{dataset=\"{}\"}}", ds.name());
                snap.counter(&format!("pipeline_{what}_total{labels}"))
            };
            assert_eq!(
                (sel("kept"), sel("dropped"), sel("filtered")),
                exported,
                "{} counters must mirror the exported records",
                ds.name()
            );
        }
        assert!(snap.gauge("topk_monitored{dataset=\"srvip\"}") > 0.0);
    }

    /// Chunked export merges back to exactly the unchunked state.
    #[test]
    fn chunked_export_reassembles() {
        let run = |chunk: usize| {
            let mut exporter = StateExporter::new(cfg(1.0), 1, chunk);
            let mut states = Vec::new();
            let mut sim = Simulation::from_config(SimConfig::small());
            sim.run(1.5, &mut |tx| exporter.ingest(tx, &mut states));
            exporter.finish(&mut states);
            states
        };
        let whole = run(0);
        let chunked = run(3);
        assert!(chunked.len() > whole.len(), "chunking must split records");
        let mut groups: BTreeMap<(u64, String), Vec<sketchwire::TopKState>> = BTreeMap::new();
        for ws in chunked {
            groups
                .entry(((ws.start * 1e6).round() as u64, ws.topk.dataset.clone()))
                .or_default()
                .push(ws.topk);
        }
        for ws in whole {
            let key = ((ws.start * 1e6).round() as u64, ws.topk.dataset.clone());
            let parts = groups.get(&key).expect("chunked run has same windows");
            let mut back = merge_chunks(parts).expect("reassemble");
            let mut want = ws.topk;
            want.entries.sort_by(|a, b| a.key.cmp(&b.key));
            back.entries.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(back, want);
        }
    }

    /// Tracing is a pure observer: a traced exporter emits one `open`
    /// and one `close` span per exported window (close value = chunk
    /// count) and produces byte-identical states to an untraced run.
    #[test]
    fn traced_exporter_spans_match_exports() {
        let run = |ring: Option<TraceRing>| {
            let mut exporter = StateExporter::new(cfg(1.0), 7, 0);
            if let Some(ring) = ring {
                exporter = exporter.with_trace(ring);
            }
            let mut states = Vec::new();
            let mut sim = Simulation::from_config(SimConfig::small());
            let mut tick = 0u64;
            sim.run(2.5, &mut |tx| {
                tick += 1;
                exporter.set_now_us(tick);
                exporter.ingest(tx, &mut states);
            });
            exporter.finish(&mut states);
            states
        };
        let ring = TraceRing::new(256);
        let plain = run(None);
        let traced = run(Some(ring.clone()));
        assert_eq!(plain, traced, "tracing must not perturb exports");

        let events: Vec<TraceEvent> = ring.events().into_iter().map(|(_, e)| e).collect();
        let opens: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::Open)
            .collect();
        let closes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::Close)
            .collect();
        let windows: BTreeMap<u64, usize> = traced.iter().fold(BTreeMap::new(), |mut acc, ws| {
            *acc.entry(window_id_us(ws.start)).or_default() += 1;
            acc
        });
        assert_eq!(opens.len(), windows.len(), "one open per window");
        // Boundary windows close at the boundary; `finish` closes the
        // final partial window — so every window closes exactly once.
        assert_eq!(closes.len(), windows.len(), "one close per window");
        for close in &closes {
            assert_eq!(close.stage, "exporter");
            assert_eq!(close.source, 7, "upstream id rides the span");
            let chunks = windows[&close.window_us];
            assert_eq!(close.value, chunks as u64);
        }
    }

    /// Two exporters fed disjoint slices merge into a global view whose
    /// stated error bound is the sum of the per-collector bounds and
    /// whose per-key hits are conserved exactly.
    #[test]
    fn two_way_merge_states_its_bound_and_conserves_hits() {
        let mut a = StateExporter::new(cfg(10.0), 0, 0);
        let mut b = StateExporter::new(cfg(10.0), 1, 0);
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(3.0, &mut |tx| {
            if tx.sensor_index(2) == 0 {
                a.ingest(tx, &mut sa);
            } else {
                b.ingest(tx, &mut sb);
            }
        });
        a.finish(&mut sa);
        b.finish(&mut sb);
        // 3 s < one 10 s window: exactly one window per dataset per side.
        let find = |v: &[WindowState], ds: &str| {
            v.iter()
                .find(|w| w.topk.dataset == ds)
                .expect("window present")
                .topk
                .clone()
        };
        for ds in ["srvip", "qtype"] {
            let (ta, tb) = (find(&sa, ds), find(&sb, ds));
            let merged = merge_topk(&ta, &tb).expect("merge");
            assert_eq!(merged.error_bound, ta.error_bound + tb.error_bound);
            assert!(merged.max_entry_error() <= merged.error_bound);
            // Per-key per-window hits are conserved: features are exact
            // counters, so the merged hits equal the sum of the sides'.
            let hits = |t: &sketchwire::TopKState| -> BTreeMap<String, u64> {
                t.entries
                    .iter()
                    .map(|e| (e.key.clone(), e.features.adds[0]))
                    .collect()
            };
            let (ha, hb, hm) = (hits(&ta), hits(&tb), hits(&merged));
            for (k, &v) in &hm {
                let want = ha.get(k).copied().unwrap_or(0) + hb.get(k).copied().unwrap_or(0);
                assert_eq!(v, want, "hits for {k} in {ds}");
            }
        }
    }
}
