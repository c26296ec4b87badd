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
//! Two things differ deliberately from the local pipeline:
//!
//! * **Windows are floor-aligned** (`⌊t/w⌋·w`), not anchored at the
//!   first summary seen. Collectors start at slightly different stream
//!   times; anchoring would misalign their windows and make cross-stream
//!   merging meaningless. The local pipeline keeps its historical
//!   anchoring; this exporter owns alignment.
//! * **One tracker per dataset** (no sharding). Shards partition the key
//!   space and carry *per-shard* `min_count`s; the cross-collector
//!   absent-key merge law is only valid against a whole tracker's
//!   `min_count`, so the forwarding path keeps trackers whole.

use crate::features::{FeatureSet, FoldDigest};
use crate::pipeline::{window_id_us, ObservatoryConfig};
use crate::summarize::TxSummary;
use crate::timeseries::WindowDump;
use crate::topk::TopKTracker;
use crate::tsv;
use psl::Psl;
use simnet::Transaction;
use sketchwire::{merge_chunks, GlobalWindow, StateError, TopKState, WindowState};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use telemetry::trace::{TraceEvent, TraceKind, TraceRing};

/// Trace stage name for exporter span events.
const STAGE: &str = "exporter";

/// Turns a summary stream into per-window [`WindowState`] items — the
/// collector half of the federated tier.
pub struct StateExporter {
    cfg: ObservatoryConfig,
    upstream: u64,
    chunk_entries: usize,
    psl: Psl,
    trackers: Vec<TopKTracker>,
    /// Stats captured at the previous window boundary, per tracker.
    prev_stats: Vec<(u64, u64, u64)>,
    window_start: Option<f64>,
    ingested: u64,
    /// Summaries at or before this aligned window start are already in
    /// the durable store and are skipped on a resumed run.
    resume_before: f64,
    /// Summaries skipped by the resume frontier.
    resumed_skipped: u64,
    trace: TraceRing,
    now_us: u64,
    /// The current summary's digest, shared by every tracker.
    digest: FoldDigest,
}

impl StateExporter {
    /// Build an exporter for collector `upstream`. `chunk_entries` caps
    /// the keys per exported chunk (`0` = never chunk); large trackers
    /// are split with `TopKState::into_chunks` so every record stays
    /// under the transport frame cap.
    pub fn new(cfg: ObservatoryConfig, upstream: u64, chunk_entries: usize) -> StateExporter {
        let trackers = cfg
            .datasets
            .iter()
            .map(|&(ds, k)| TopKTracker::new(ds, k, cfg.feature_cfg, cfg.bloom_gate))
            .collect::<Vec<_>>();
        let prev_stats = vec![(0, 0, 0); trackers.len()];
        StateExporter {
            cfg,
            upstream,
            chunk_entries: if chunk_entries == 0 {
                usize::MAX
            } else {
                chunk_entries
            },
            psl: Psl::embedded(),
            trackers,
            prev_stats,
            window_start: None,
            ingested: 0,
            resume_before: f64::NEG_INFINITY,
            resumed_skipped: 0,
            trace: TraceRing::disabled(),
            now_us: 0,
            digest: FoldDigest::default(),
        }
    }

    /// Rebuild an exporter from the newest durable window of a store —
    /// the crash-recovery path of `collect --store`.
    ///
    /// `states` are that window's records (every dataset, chunked or
    /// not) and `last_window_start` its aligned start. Each tracker is
    /// restored from its serialized state (see [`TopKTracker::restore`]
    /// for why the rebuilt tracker equals the post-export one), and the
    /// resume frontier is set so replayed summaries belonging to the
    /// durable window — or anything earlier — are skipped, not
    /// double-counted. The per-tracker `kept`/`dropped`/`filtered`
    /// counters and `prev_stats` both restart at zero, so the *deltas*
    /// exported per window are unaffected by the restart.
    pub fn resume(
        cfg: ObservatoryConfig,
        upstream: u64,
        chunk_entries: usize,
        last_window_start: f64,
        states: &[WindowState],
    ) -> Result<StateExporter, StateError> {
        let mut exporter = StateExporter::new(cfg, upstream, chunk_entries);
        let mut by_dataset: BTreeMap<String, Vec<TopKState>> = BTreeMap::new();
        for ws in states {
            by_dataset
                .entry(ws.topk.dataset.clone())
                .or_default()
                .push(ws.topk.clone());
        }
        for (i, tracker) in exporter.trackers.iter_mut().enumerate() {
            let (ds, k) = exporter.cfg.datasets[i];
            let parts = by_dataset
                .remove(ds.name())
                .ok_or(StateError::LayoutMismatch("resume state missing a dataset"))?;
            let whole = merge_chunks(&parts)?;
            if whole.capacity != k as u64 {
                return Err(StateError::LayoutMismatch(
                    "resume capacity differs from configured k",
                ));
            }
            *tracker =
                TopKTracker::restore(&whole, exporter.cfg.feature_cfg, exporter.cfg.bloom_gate)?;
        }
        if !by_dataset.is_empty() {
            return Err(StateError::LayoutMismatch(
                "resume state has a dataset the config lacks",
            ));
        }
        exporter.resume_before = last_window_start + exporter.cfg.window_secs;
        Ok(exporter)
    }

    /// Attach a trace ring; each exported window records a `close` span
    /// event keyed by the same window id the aggregator uses on the
    /// wire, with the chunk count as its value. Sans-io: pair with
    /// [`StateExporter::set_now_us`] to timestamp events.
    pub fn with_trace(mut self, ring: TraceRing) -> StateExporter {
        self.trace = ring;
        self
    }

    /// Advance the exporter's notion of time for trace timestamps.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Total transactions ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Transactions skipped because they predate the resume frontier.
    pub fn resumed_skipped(&self) -> u64 {
        self.resumed_skipped
    }

    /// Ingest one simulator transaction; completed windows are appended
    /// to `out`.
    pub fn ingest(&mut self, tx: &Transaction, out: &mut Vec<WindowState>) {
        let summary = TxSummary::from_transaction(tx, &self.psl);
        self.ingest_summary(summary, out);
    }

    /// Ingest a pre-built summary; completed windows are appended to
    /// `out`. Input must be time-ordered (the feed collector's merge
    /// guarantees this).
    pub fn ingest_summary(&mut self, summary: TxSummary, out: &mut Vec<WindowState>) {
        let w = self.cfg.window_secs;
        let aligned = (summary.time / w).floor() * w;
        // Resumed runs replay the feed from before the crash; anything
        // already folded into the durable store is skipped (and counted),
        // never double-aggregated.
        if aligned < self.resume_before {
            self.resumed_skipped += 1;
            return;
        }
        match self.window_start {
            None => {
                self.window_start = Some(aligned);
                self.trace_open(aligned);
            }
            Some(start) if aligned > start => {
                // A jump of more than one window leaves a gap the
                // aggregator's per-upstream ledger will count.
                self.export_window(start, out);
                self.window_start = Some(aligned);
                self.trace_open(aligned);
            }
            _ => {}
        }
        self.ingested += 1;
        self.digest.load(&summary);
        for t in &mut self.trackers {
            t.observe_digest(&summary, &self.digest);
        }
    }

    /// Flush the final partial window and return how many transactions
    /// were ingested in total.
    pub fn finish(mut self, out: &mut Vec<WindowState>) -> u64 {
        if let Some(start) = self.window_start {
            if self.ingested > 0 {
                self.export_window(start, out);
            }
        }
        self.ingested
    }

    fn trace_open(&self, start: f64) {
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, STAGE, TraceKind::Open)
                    .window(window_id_us(start))
                    .source(self.upstream),
            );
        }
    }

    fn export_window(&mut self, start: f64, out: &mut Vec<WindowState>) {
        let before = out.len();
        for (i, t) in self.trackers.iter_mut().enumerate() {
            let (kept, dropped, filtered) = t.stats();
            let (pk, pd, pf) = self.prev_stats[i];
            self.prev_stats[i] = (kept, dropped, filtered);
            let state = t.export_state(kept - pk, dropped - pd, filtered - pf);
            for chunk in state.into_chunks(self.chunk_entries) {
                out.push(WindowState {
                    upstream: self.upstream,
                    start,
                    length: self.cfg.window_secs,
                    topk: chunk,
                });
            }
        }
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, STAGE, TraceKind::Close)
                    .window(window_id_us(start))
                    .source(self.upstream)
                    .value((out.len() - before) as u64),
            );
        }
    }
}

/// Render one merged sketch state into the [`WindowDump`] shape the
/// local pipeline produces — residency rule, hit filter, hits-descending
/// order, and the capacity cap re-applied. Shared by the aggregator's
/// global render and the historical store's query path (which renders
/// windows of any compaction level through exactly this function).
pub fn render_state(state: &TopKState, start: f64, length: f64) -> Result<WindowDump, StateError> {
    let mut rows = Vec::new();
    for e in &state.entries {
        // adds[0] is `hits` in the layout contract: per-window
        // traffic, not the cumulative Space-Saving count.
        let hits = e.features.adds.first().copied().unwrap_or(0);
        if e.inserted_at <= start && hits > 0 {
            rows.push((e.key.clone(), FeatureSet::from_state(&e.features)?.row()));
        }
    }
    rows.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then_with(|| a.0.cmp(&b.0)));
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

/// Render one merged global window into per-dataset [`WindowDump`]s —
/// a drop-in for every downstream consumer (TSV writer, rollups,
/// analysis).
pub fn render_global(gw: &GlobalWindow) -> Result<Vec<WindowDump>, StateError> {
    gw.datasets
        .iter()
        .map(|state| render_state(state, gw.start, gw.length))
        .collect()
}

/// Write one global window to `dir` using the same file naming as the
/// local pipeline (`{dataset}-{start:05}.tsv`); returns the file count.
/// A state that cannot be rendered maps to [`io::ErrorKind::InvalidData`].
pub fn write_global(dir: &Path, gw: &GlobalWindow) -> io::Result<usize> {
    let dumps =
        render_global(gw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    for dump in &dumps {
        let path = dir.join(format!("{}-{:05}.tsv", dump.dataset, dump.start as u64));
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        tsv::write_window(&mut w, dump)?;
    }
    Ok(dumps.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Dataset;
    use crate::pipeline::Observatory;
    use simnet::{SimConfig, Simulation};
    use sketchwire::{merge_chunks, merge_topk, AggregatorConfig, AggregatorCore};
    use std::collections::BTreeMap;

    fn cfg(window: f64) -> ObservatoryConfig {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 500), (Dataset::Qtype, 64)],
            window_secs: window,
            bloom_gate: false,
            ..ObservatoryConfig::default()
        }
    }

    /// One collector's exported state, rendered back, matches the local
    /// pipeline's dump — *given* the same (floor-aligned) window starts.
    #[test]
    fn single_exporter_roundtrips_to_local_dump() {
        let psl = Psl::embedded();
        let mut summaries = Vec::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(2.5, &mut |tx| {
            summaries.push(TxSummary::from_transaction(tx, &psl));
        });
        // The local pipeline anchors windows at the first summary time;
        // the exporter floor-aligns. Snapping the first summary to a
        // window boundary makes the two schemes coincide, so the dumps
        // must then agree exactly.
        summaries[0].time = summaries[0].time.floor();

        let mut exporter = StateExporter::new(cfg(1.0), 7, 0);
        let mut obs = Observatory::new(cfg(1.0));
        let mut states = Vec::new();
        for s in summaries {
            obs.ingest_summary(s.clone());
            exporter.ingest_summary(s, &mut states);
        }
        exporter.finish(&mut states);
        let store = obs.finish();
        assert!(!states.is_empty());

        // The sim starts at t≈0, so the local anchored windows coincide
        // with the floor-aligned ones and the dumps must agree exactly.
        let mut core = AggregatorCore::new(&AggregatorConfig::new(1));
        for ws in states {
            core.on_state(ws).expect("valid state");
        }
        let mut sealed = Vec::new();
        core.finish(&mut sealed);
        let mut rendered: Vec<WindowDump> = Vec::new();
        for gw in &sealed {
            rendered.extend(render_global(gw).expect("render"));
        }
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
